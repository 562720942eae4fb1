(* Entry point of the end-to-end benchmark.

     bench.exe --workload suite|serve-mix --seed N --seconds S --trace 0|1
               [--spec BENCHMARK.json] [--ndp-run PATH]
     bench.exe --self-test

   Prints the metric table, then as its last line one JSON object with
   the keys correct, attempted, failed and metrics. With --trace 0 the
   metrics are the end-to-end ones of the spec, with --trace 1 the
   per-layer ones. *)

module Json = Ndp_obs.Render.Json

let usage () =
  prerr_endline
    "usage: bench.exe --workload suite|serve-mix --seed N --seconds S --trace 0|1 [--spec \
     FILE] [--ndp-run PATH] | --self-test";
  exit 2

(* Keep exactly the spec's metrics, in its order. A per-layer metric the
   workload does not exercise reads 0; a missing end-to-end metric or a
   unit that disagrees with the spec is a benchmark defect. *)
let finalize (r : Report.t) ~spec ~trace =
  let wanted = Bench_spec.metrics ~spec (if trace then "per_layer" else "end_to_end") in
  let have = r.Report.metrics in
  r.Report.metrics <- [];
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Report.name = name) have with
      | Some m ->
        if m.Report.unit_ <> unit_ then
          Report.problem r (Printf.sprintf "%s measured in %s, spec says %s" name m.Report.unit_ unit_);
        Report.add r name unit_ m.Report.value
      | None ->
        if trace then Report.add r name unit_ 0.0
        else failwith (Printf.sprintf "end-to-end metric %s was not measured" name))
    wanted

let () =
  (* A daemon that dies must surface as a write error, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let spec = ref "BENCHMARK.json" and ndp_run = ref "_build/default/bin/ndp_run.exe" in
  let self_test = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spec" :: v :: rest -> spec := v; parse rest
    | "--ndp-run" :: v :: rest -> ndp_run := v; parse rest
    | "--self-test" :: rest -> self_test := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !self_test then exit (if Selftest.run ~spec:!spec then (print_endline "self-tests passed"; 0) else 1);
  let measure =
    match !workload with
    | "suite" -> Suite_wl.run ~seed:!seed
    | "serve-mix" -> Serve_wl.run ~ndp_run:!ndp_run ~seed:!seed
    | _ -> usage ()
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let r = Report.create () in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n%!" !workload !seed !seconds trace;
  if not (Selftest.run ~spec:!spec) then Report.problem r "benchmark self-tests failed";
  measure r ~seconds:!seconds ~trace;
  if not trace then Report.ok_ratio r;
  finalize r ~spec:!spec ~trace;
  Report.print_table r;
  print_endline (Json.to_string (Report.to_json r))
