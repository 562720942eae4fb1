(* Workload "serve-mix": the real `ndp_run serve --stdio` daemon as a
   child process, driven by one closed-loop client over
   [Ndp_serve.Protocol]. Specs are Zipf draws over app x scheme x cluster
   x memory x window (630 distinct jobs); the daemon's result cache holds
   32 bodies, so the tail evicts within one run. The op mix is mostly
   [run], with some [compile], [sweep] and [batch], cheap [ping] and
   [cache-stats], and 2% specs that are invalid beyond doubt. Cache hits
   cost about a millisecond and misses hundreds, so serve-boundary work
   (protocol, key, cache, render) moves the median and compile work the
   tail; the Zipf exponent keeps the fast share near two thirds, away
   from the one half where the median would flip between the two. *)

module Protocol = Ndp_serve.Protocol
module Json = Ndp_obs.Render.Json
module P = Ndp_core.Pipeline

let result_capacity = 32
let schedule_capacity = 4
let zipf_exponent = 1.5

(* One domain: on two CPUs the client holds one, and a second pool domain
   made every window-size estimate wait on whichever CPU a neighbour was
   slowing. Run alternately on the same seeds, two domains gave p90 and
   req/s spreads of 32% and 28% across ten seeds, one domain 9% and 11%,
   at a higher rate. *)
let daemon_jobs = 1

(* ------------------------------------------------------------------ *)
(* Generated requests                                                  *)

let clusters = [ "all-to-all"; "quadrant"; "snc-4" ]
let memories = [ "flat"; "cache"; "hybrid" ]
let windows = [ "adaptive"; "analytic"; "4"; "8" ]

(* The spec space in Zipf rank order: a fixed popularity table, so that
   the seed varies the request sequence but not which jobs are popular.
   Each app's 45 specs (9 default, 36 partitioned) are shuffled and
   interleaved one default to four partitioned; rank round j then takes
   the j-th spec of every app, apps in a fresh order, so any run of ranks
   is balanced across apps and schemes, whose costs differ most. *)
let spec_space rng =
  let shuffle a = Array.map (fun i -> a.(i)) (Gen.permutation rng (Array.length a)) in
  let per_app =
    List.map
      (fun app ->
        let base = Protocol.default_spec ~app in
        let cm = List.concat_map (fun cluster -> List.map (fun memory -> (cluster, memory)) memories) clusters in
        let d =
          shuffle
            (Array.of_list
               (List.map (fun (cluster, memory) -> { base with Protocol.scheme = "default"; cluster; memory }) cm))
        in
        let p =
          shuffle
            (Array.of_list
               (List.concat_map
                  (fun (cluster, memory) ->
                    List.map (fun window -> { base with Protocol.window; cluster; memory }) windows)
                  cm))
        in
        Array.init (Array.length d + Array.length p) (fun i ->
            if i mod 5 = 0 then d.(i / 5) else p.(i - (i / 5) - 1)))
      Ndp_workloads.Suite.names
    |> Array.of_list
  in
  let rounds = Array.length per_app.(0) in
  Array.concat
    (List.init rounds (fun j ->
         Array.map (fun a -> per_app.(a).(j)) (Gen.permutation rng (Array.length per_app))))

type kind = Run | Compile | Sweep | Batch | Ping | Stats | Invalid

(* One block of 50 requests, shuffled afresh for every block. *)
let block =
  List.concat_map
    (fun (k, n) -> List.init n (fun _ -> k))
    [ (Run, 39); (Compile, 2); (Sweep, 2); (Batch, 1); (Ping, 2); (Stats, 3); (Invalid, 1) ]
  |> Array.of_list

let variant v_name v_overrides = { Protocol.v_name; v_overrides; v_tweaks = P.no_tweaks }

let sweep_variants =
  [ variant "baseline" []; variant "hop-cycles-8" [ ("hop_cycles", 8) ]; variant "ddr-cycles-520" [ ("ddr_cycles", 520) ] ]

type req = { id : int; kind : kind; request : Protocol.request }

let generator ~seed =
  let space = spec_space (Gen.rng ~seed:0 ~stream:5) in
  let rng = Gen.rng ~seed ~stream:2 in
  let z = Gen.zipf rng ~n:(Array.length space) ~s:zipf_exponent in
  let spec () = space.(Gen.draw z) in
  let pending = ref [] and id = ref 0 and invalid = ref 0 in
  fun () ->
    if !pending = [] then pending := Array.to_list (Array.map (fun i -> block.(i)) (Gen.permutation rng (Array.length block)));
    let kind = List.hd !pending in
    pending := List.tl !pending;
    incr id;
    let request =
      match kind with
      | Run -> Protocol.Run { spec = spec (); metrics = false }
      | Compile -> Protocol.Compile (spec ())
      | Sweep -> Protocol.Sweep { spec = spec (); variants = sweep_variants }
      | Batch ->
        let a = spec () in
        Protocol.Batch [ a; spec () ]
      | Ping -> Protocol.Ping
      | Stats -> Protocol.Cache_stats
      | Invalid -> (
        incr invalid;
        match !invalid mod 3 with
        | 1 -> Protocol.Run { spec = { (spec ()) with Protocol.app = "no-such-app" }; metrics = false }
        | 2 -> Protocol.Run { spec = { (spec ()) with Protocol.scheme = "greedy" }; metrics = false }
        | _ -> Protocol.Sweep { spec = spec (); variants = [ variant "hop-cycles--5" [ ("hop_cycles", -5) ] ] })
    in
    { id = !id; kind; request }

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)

type daemon = { pid : int; ic : in_channel; oc : out_channel }

let spawn ~ndp_run ~access_log =
  let args =
    [
      ndp_run; "serve"; "--stdio"; "--jobs"; string_of_int daemon_jobs;
      "--result-cache"; string_of_int result_capacity;
      "--schedule-cache"; string_of_int schedule_capacity;
    ]
    @ match access_log with Some path -> [ "--access-log"; path ] | None -> []
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process ndp_run (Array.of_list args) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; ic = Unix.in_channel_of_descr out_r; oc = Unix.out_channel_of_descr in_w }

let rpc d ~id request =
  Protocol.write_request d.oc ~id request;
  flush d.oc;
  match Protocol.read_response d.ic with
  | Ok reply -> reply
  | Error msg -> failwith ("serve daemon: " ^ msg)

(* Shut the daemon down and reap it; kill it if it does not answer. *)
let stop d =
  (try ignore (rpc d ~id:0 Protocol.Shutdown) with Failure _ | Sys_error _ -> Unix.kill d.pid Sys.sigkill);
  close_out_noerr d.oc;
  close_in_noerr d.ic;
  ignore (Unix.waitpid [] d.pid)

let with_daemon ~ndp_run ~access_log f =
  let d = spawn ~ndp_run ~access_log in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* Sessions and checks                                                 *)

type outcome = { req : req; ms : float; words : float; env : Protocol.envelope; body : string }

(* Closed loop: the next request goes out when the previous reply is in. *)
let session d gen ~seconds ~min_requests =
  let t0 = Report.now () in
  let out = ref [] and n = ref 0 in
  while Report.now () -. t0 < seconds || !n < min_requests do
    let req = gen () in
    let w0 = Report.words () in
    let t = Report.now () in
    let env, body = rpc d ~id:req.id req.request in
    let ms = (Report.now () -. t) *. 1000.0 in
    out := { req; ms; words = Report.words () -. w0; env; body } :: !out;
    incr n
  done;
  (List.rev !out, Report.now () -. t0)

let error_text body =
  match Json.parse body with Ok doc -> (match Json.member "error" doc with Some (Json.Str s) -> Some s | _ -> None) | Error _ -> None

(* An error message that is a raw OCaml exception rather than a
   structured reason. *)
let raw_exn msg =
  List.exists
    (fun pat -> Astring.String.is_infix ~affix:pat msg)
    [ "Invalid_argument"; "Failure"; "Not_found"; "Division_by_zero"; "Assert_failure"; "Match_failure"; "Exit"; "Stack_overflow" ]

let describe o = Printf.sprintf "request %d (%s)" o.req.id (Protocol.op_name o.req.request)

let int_at path doc =
  let rec go doc = function
    | [] -> ( match doc with Json.Int i -> Some i | _ -> None)
    | k :: rest -> Option.bind (Json.member k doc) (fun d -> go d rest)
  in
  go doc path

(* A sweep replays the captured schedule; its baseline variant runs under
   the capture config, so it must reproduce the capture's cycles and
   flit-hops. Bodies of other ops pass. *)
let baseline_matches (req : Protocol.request) body =
  match req with
  | Protocol.Sweep _ -> (
    match Json.parse body with
    | Ok doc -> (
      match Json.member "variants" doc with
      | Some (Json.List vs) ->
        List.for_all
          (fun v ->
            Json.member "name" v <> Some (Json.Str "baseline")
            || (int_at [ "exec_time" ] v = int_at [ "base_exec_time" ] doc
               && int_at [ "hops" ] v = int_at [ "base_hops" ] doc))
          vs
      | _ -> false)
    | Error _ -> false)
  | _ -> true

(* Every reply of a valid request is ok with its own id, every body under
   a key is byte-identical to the first body served for it, and a sweep's
   baseline matches its capture; an invalid spec must get ok:false with
   an error body. *)
let check r outcomes =
  let first = Hashtbl.create 64 in
  List.iter
    (fun o ->
      if o.req.kind = Invalid then
        Report.op r
          ((not o.env.Protocol.ok) && error_text o.body <> None)
          ~what:(describe o ^ ": invalid spec not answered with an error body")
      else begin
        let identical =
          o.env.Protocol.key = ""
          ||
          match Hashtbl.find_opt first o.env.Protocol.key with
          | None ->
            Hashtbl.add first o.env.Protocol.key o.body;
            true
          | Some b -> String.equal b o.body
        in
        let baseline = (not o.env.Protocol.ok) || baseline_matches o.req.request o.body in
        Report.op r
          (o.env.Protocol.ok && o.env.Protocol.id = o.req.id && identical && baseline)
          ~what:
            (Printf.sprintf "%s: ok=%b id=%d%s%s: %s" (describe o) o.env.Protocol.ok o.env.Protocol.id
               (if identical then "" else ", body differs from the first body for its key")
               (if baseline then "" else ", baseline replay differs from its capture")
               (String.sub o.body 0 (min 120 (String.length o.body))))
      end)
    outcomes

(* Cold run bodies, one per key: the first reply of each distinct run. *)
let run_bodies outcomes =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun o ->
      match o.req.request with
      | Protocol.Run { spec; _ } when o.env.Protocol.ok && not (Hashtbl.mem seen o.env.Protocol.key) ->
        Hashtbl.add seen o.env.Protocol.key ();
        Result.to_option (Json.parse o.body) |> Option.map (fun doc -> (spec, doc))
      | _ -> None)
    outcomes

(* A sample of the run bodies must match a direct [Job.run] of the same
   spec in cycles and flit-hops. *)
let direct_runs = 6

let check_direct r ~seed bodies =
  let bodies = Array.of_list bodies in
  let order = Gen.permutation (Gen.rng ~seed ~stream:4) (Array.length bodies) in
  Array.iteri
    (fun i b ->
      if i < direct_runs then begin
        let spec, doc = bodies.(b) in
        let ok =
          match Ndp_serve.Service.job_of_spec spec with
          | Error _ -> false
          | Ok job ->
            let res = P.Job.run job in
            int_at [ "exec_time" ] doc = Some res.P.exec_time
            && int_at [ "stats"; "hops" ] doc = Some (Ndp_sim.Stats.hops res.P.stats)
        in
        Report.op r ok
          ~what:(Printf.sprintf "run %s/%s: daemon body differs from a direct Job.run" spec.Protocol.app spec.Protocol.scheme)
      end)
    order

(* The product metrics, from one batch of every kernel under both
   schemes with the default spec, sent after the timed loop. *)
let product r d =
  let specs =
    List.concat_map
      (fun app ->
        let s = Protocol.default_spec ~app in
        [ { s with Protocol.scheme = "default" }; s ])
      Ndp_workloads.Suite.names
  in
  let env, body = rpc d ~id:1_000_000 (Protocol.Batch specs) in
  let results = match Json.parse body with Ok doc -> Json.member "results" doc | Error _ -> None in
  match results with
  | Some (Json.List rs) when env.Protocol.ok && List.length rs = List.length specs ->
    Report.op r true ~what:"";
    let summary doc = (Option.value (int_at [ "stats"; "hops" ] doc) ~default:0, Option.value (int_at [ "exec_time" ] doc) ~default:0) in
    let rec rows apps rs =
      match (apps, rs) with
      | app :: apps, d :: p :: rs -> (app, summary d, summary p) :: rows apps rs
      | _ -> []
    in
    Report.product r (rows Ndp_workloads.Suite.names rs)
  | _ ->
    Report.op r false ~what:"product batch failed";
    Report.product r []

let cache_stats d =
  let _, body = rpc d ~id:1_000_001 Protocol.Cache_stats in
  match Json.parse body with Ok doc -> doc | Error _ -> Json.Null

(* ------------------------------------------------------------------ *)
(* Access log                                                          *)

type logged = { bytes_out : int; phases : (string * float) list }

let read_access_log path =
  let tbl = Hashtbl.create 256 in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match Json.parse line with
          | Ok doc ->
            let phases =
              match Json.member "phases" doc with
              | Some (Json.Obj kvs) -> List.map (fun (name, v) -> (name, Layers.float_field "ms" v)) kvs
              | _ -> []
            in
            Hashtbl.replace tbl (Layers.int_field "id" doc) { bytes_out = Layers.int_field "bytes_out" doc; phases }
          | Error _ -> ());
          loop ()
      in
      loop ());
  tbl

(* ------------------------------------------------------------------ *)
(* Per-layer table                                                     *)

let layers r ~untraced ~traced ~logged ~stats =
  let log o = Hashtbl.find_opt logged o.req.id in
  let phases o = match log o with Some l -> l.phases | None -> [] in
  let phase_sum o names = List.fold_left (fun s (name, ms) -> if List.mem name names then s +. ms else s) 0.0 (phases o) in
  let n = float_of_int (max 1 (List.length traced)) in
  let acc = Layers.create () in
  List.iter (fun o -> List.iter (fun (name, ms) -> Layers.add acc name ms) (phases o)) traced;
  List.iter (fun p -> Report.add r (p ^ ".ms") "ms" (Layers.total acc p /. n)) Layers.compile_phases;
  Report.add r "simulate.ms" "ms" (Layers.sum acc Layers.sim_phases /. n);
  let compiled = List.filter (fun o -> phase_sum o Layers.compile_phases > 0.0) traced in
  let sum f l = List.fold_left (fun s o -> s +. f o) 0.0 l in
  Report.add r "compile.share" "ratio"
    (let total = sum (fun o -> o.ms) compiled in
     if total > 0.0 then sum (fun o -> phase_sum o Layers.compile_phases) compiled /. total else 0.0);
  Report.add r "serve.compile.ms" "ms"
    (sum (fun o -> phase_sum o Layers.compile_phases) compiled /. float_of_int (max 1 (List.length compiled)));
  let rendered = List.filter (fun o -> phase_sum o [ "render" ] > 0.0) traced in
  Report.add r "serve.render.ms" "ms"
    (sum (fun o -> phase_sum o [ "render" ]) rendered /. float_of_int (max 1 (List.length rendered)));
  (* Host time per simulated task, over the run misses (their bodies
     carry the task count). *)
  let run_misses =
    List.filter_map
      (fun o ->
        match (o.req.kind, Json.parse o.body) with
        | Run, Ok doc when o.env.Protocol.ok && not o.env.Protocol.cached ->
          Option.map (fun tasks -> (phase_sum o [ "simulate" ], tasks)) (int_at [ "stats"; "tasks" ] doc)
        | _ -> None)
      traced
  in
  Report.add r "sim.us_per_task" "us"
    (1000.0 *. Pct.sum (List.map fst run_misses)
    /. float_of_int (max 1 (List.fold_left (fun s (_, t) -> s + t) 0 run_misses)));
  let sim = Layers.Sim.create () in
  let bodies = run_bodies traced in
  List.iter (fun (_, doc) -> Option.iter (Layers.Sim.add_json sim) (Json.member "stats" doc)) bodies;
  Layers.Sim.report sim r;
  let parts = List.filter (fun ((spec : Protocol.job_spec), _) -> spec.Protocol.scheme <> "default") bodies in
  Report.add r "core.sync_arcs" "count"
    (float_of_int (List.fold_left (fun s (_, doc) -> s + Option.value (int_at [ "sync_arcs" ] doc) ~default:0) 0 parts));
  Report.add r "mem.predictor_accuracy" "ratio"
    (Pct.mean (List.map (fun (_, doc) -> Layers.float_field "predictor_accuracy" doc) parts));
  let p50 f = Pct.median (List.filter_map (fun o -> if f o then Some o.ms else None) traced) in
  Report.add r "serve.hit_ms_p50" "ms" (p50 (fun o -> o.env.Protocol.cached));
  Report.add r "serve.miss_ms_p50" "ms"
    (p50 (fun o -> o.env.Protocol.ok && o.env.Protocol.key <> "" && not o.env.Protocol.cached));
  Report.add r "serve.cheap_ms_p50" "ms" (p50 (fun o -> o.req.kind = Ping || o.req.kind = Stats));
  let batches = List.filter (fun o -> o.req.kind = Batch && not o.env.Protocol.cached) traced in
  Report.add r "pool.batch_ms" "ms" (Pct.mean (List.map (fun o -> o.ms) batches));
  List.iter
    (fun cache ->
      let get k = Option.value (int_at [ cache; k ] stats) ~default:0 in
      let hits = get "hits" and misses = get "misses" in
      Report.add r ("cache." ^ cache ^ ".hit_ratio") "ratio"
        (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
      Report.add r ("cache." ^ cache ^ ".evictions") "count" (float_of_int (get "evictions")))
    [ "results"; "schedules" ];
  Report.add r "serve.bytes_out" "bytes"
    (Pct.mean (List.filter_map (fun o -> Option.map (fun l -> float_of_int l.bytes_out) (log o)) traced));
  let errors = List.filter_map (fun o -> if o.env.Protocol.ok then None else error_text o.body) traced in
  let raw = List.length (List.filter raw_exn errors) in
  Report.add r "serve.errors.expected" "count" (float_of_int (List.length errors - raw));
  Report.add r "serve.errors.raw_exn" "count" (float_of_int raw);
  (* Phase spans cover the compiling requests from inside the daemon; a
     request without phases (hit, cheap op, error, batch) is timed from
     outside as the serve or pool layer as a whole. *)
  let attributed = sum (fun o -> match phases o with [] -> o.ms | ps -> Pct.sum (List.map snd ps)) traced in
  Layers.reconcile r
    ~lat_ms:(List.map (fun o -> o.ms) untraced)
    ~lat_traced_ms:(List.map (fun o -> o.ms) traced)
    ~phase_ms:attributed

(* ------------------------------------------------------------------ *)

let work_dir = "perfbench/_work"

let run ~ndp_run ~seed r ~seconds ~trace =
  (* Set-up: start the daemon and have it answer a ping, several times. *)
  ignore
    (Report.setup r ~reps:15
       (fun () -> with_daemon ~ndp_run ~access_log:None (fun d -> fst (rpc d ~id:1 Protocol.Ping)))
       (fun _ env -> Report.op r env.Protocol.ok ~what:"set-up ping failed"));
  let min_requests = if trace then 0 else Pct.samples_for 0.9 in
  let seconds = if trace then seconds /. 2.0 else seconds in
  let untraced, rss, elapsed =
    with_daemon ~ndp_run ~access_log:None (fun d ->
        let outcomes, elapsed = session d (generator ~seed) ~seconds ~min_requests in
        if not trace then product r d;
        (outcomes, Report.peak_rss_mb ~pid:(string_of_int d.pid) (), elapsed))
  in
  check r untraced;
  let lat = List.map (fun o -> o.ms) untraced in
  Printf.printf "  %d of %d replies under 10 ms\n"
    (List.length (List.filter (fun o -> o.ms < 10.0) untraced))
    (List.length untraced);
  if not trace then begin
    check_direct r ~seed (run_bodies untraced);
    Report.latency r ~lat_ms:lat ~elapsed_s:elapsed;
    (* The client's protocol work per call: the median, since the mean
       follows the mix of body sizes a seed happens to draw. *)
    Report.add r "alloc_mwords_per_req" "Mwords" (Pct.median (List.map (fun o -> o.words) untraced) /. 1e6);
    Report.add r "peak_rss_mb" "MB" (Option.value rss ~default:0.0)
  end
  else begin
    (* The same request sequence again, against a fresh daemon that
       writes the access log. *)
    (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let log = Printf.sprintf "%s/access-%d.jsonl" work_dir (Unix.getpid ()) in
    let traced, stats =
      with_daemon ~ndp_run ~access_log:(Some log) (fun d ->
          let outcomes, _ = session d (generator ~seed) ~seconds ~min_requests in
          (outcomes, cache_stats d))
    in
    check r traced;
    let logged = read_access_log log in
    Sys.remove log;
    layers r ~untraced ~traced ~logged ~stats
  end
