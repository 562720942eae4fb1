(* The benchmark's own tests: the percentile helper honours the
   ten-beyond rule, inputs follow the seed, metric names are
   well-formed, and each output check counts a tampered output as
   failed. They run before every measurement (untimed) and alone under
   --self-test. *)

module P = Ndp_core.Pipeline
module Protocol = Ndp_serve.Protocol

let percentile_rule () =
  let xs n = List.init n float_of_int in
  let beyond q l = match Pct.percentile q l with Ok v -> List.length (List.filter (fun x -> x > v) l) | Error _ -> -1 in
  Pct.samples_for 0.9 = 100
  && Pct.samples_for 0.5 = 20
  && Pct.samples_for 0.99 = 1000
  && Result.is_error (Pct.percentile 0.9 (xs 99))
  && beyond 0.9 (xs 100) = 10
  && beyond 0.9 (xs 1000) = 100
  && Pct.percentile 0.5 (xs 20) = Ok 9.0

let metric_names ~spec =
  let names =
    List.map fst (Bench_spec.metrics ~spec "end_to_end") @ List.map fst (Bench_spec.metrics ~spec "per_layer")
  in
  List.for_all Report.valid_name names
  && List.length (List.sort_uniq compare names) = List.length names
  && not (List.exists Report.valid_name [ ""; "a b"; ".hidden"; "x/y"; String.make 65 'a' ])

(* Another job's result must fail the suite's repeat check. *)
let tampered_suite () =
  let k = Ndp_workloads.Suite.find "fft" in
  let part = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
  let default = P.Job.run (P.Job.make P.Default k) in
  Suite_wl.same part part && not (Suite_wl.same part default)

(* A cached body that differs by one byte from the first body for its
   key, a replay under another config posing as a sweep's baseline, and
   an invalid spec answered ok must each count as failed. *)
let tampered_serve () =
  let spec = Protocol.default_spec ~app:"fft" in
  let run = Protocol.Run { spec; metrics = false } in
  let sweep = Protocol.Sweep { spec; variants = Serve_wl.sweep_variants } in
  let reply ?(ok = true) ?(key = "k") ?(request = run) id kind body =
    {
      Serve_wl.req = { Serve_wl.id; kind; request };
      ms = 1.0;
      words = 0.0;
      env = { Protocol.id; ok; cached = id > 1; key };
      body;
    }
  in
  let failed outcomes =
    let r = Report.create ~quiet:true () in
    Serve_wl.check r outcomes;
    r.Report.failed
  in
  (* fft/partitioned under the default config and under hop_cycles 8 *)
  let sweep_body baseline_exec =
    Printf.sprintf
      "{\"base_exec_time\":7608,\"base_hops\":85680,\"variants\":[{\"name\":\"baseline\",\"exec_time\":%d,\"hops\":85680}]}"
      baseline_exec
  in
  failed [ reply 1 Serve_wl.Run "{\"a\":1}"; reply 2 Serve_wl.Run "{\"a\":1}" ] = 0
  && failed [ reply 1 Serve_wl.Run "{\"a\":1}"; reply 2 Serve_wl.Run "{\"a\":2}" ] = 1
  && failed [ reply ~request:sweep 1 Serve_wl.Sweep (sweep_body 7608) ] = 0
  && failed [ reply ~request:sweep 1 Serve_wl.Sweep (sweep_body 6125) ] = 1
  && failed [ reply ~ok:false ~key:"" 1 Serve_wl.Invalid "{\"error\":\"unknown application\"}" ] = 0
  && failed [ reply ~key:"" 1 Serve_wl.Invalid "{\"a\":1}" ] = 1

(* One seed always yields the same request sequence, another seed a
   different one. *)
let seeded_inputs () =
  let requests seed =
    let gen = Serve_wl.generator ~seed in
    List.init 200 (fun _ ->
        let q = gen () in
        Ndp_obs.Render.Json.to_string (Protocol.request_to_json ~id:q.Serve_wl.id q.Serve_wl.request))
  in
  let order seed = Gen.permutation (Gen.rng ~seed ~stream:1) 44 in
  requests 1 = requests 1 && requests 1 <> requests 2 && order 1 = order 1 && order 1 <> order 2

let run ~spec =
  List.for_all Fun.id
  @@ List.map
    (fun (name, test) ->
      let ok = try test () with e -> prerr_endline (Printexc.to_string e); false in
      if not ok then Printf.eprintf "perfbench: self-test %s FAILED\n%!" name;
      ok)
    [
      ("percentile-rule", percentile_rule);
      ("seeded-inputs", seeded_inputs);
      ("metric-names", fun () -> metric_names ~spec);
      ("tampered-suite", tampered_suite);
      ("tampered-serve", tampered_serve);
    ]
