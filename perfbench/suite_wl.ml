(* Workload "suite": every suite kernel under the default scheme and
   under the partitioned scheme with each window sizer (adaptive, the
   default, and analytic), plus the fused scheme on the two DNN blocks —
   44 [Pipeline.Job.run]s per pass on one domain, in an order drawn from
   the seed. Partitioned jobs spend most of their time compiling (window,
   deps, schedule) and default jobs almost all of theirs simulating, so
   compile-layer work shows here, and the paper's product metrics come
   from here.

   Every job runs once per pass, so the median and the 90th percentile
   each read one job, or the boundary between two. With the 30 jobs of
   the default and adaptive schemes alone, the median sat at a 73 -> 87 ms
   gap between two jobs and jumped between them from run to run; with
   both sizers on every kernel, both figures fall among several jobs of
   nearly equal cost. *)

module P = Ndp_core.Pipeline
module Stats = Ndp_sim.Stats

type entry = { app : string; scheme : string; job : P.Job.t }

let fused_apps = [ "resnet_block"; "mobilenet_block" ]

let entries () =
  let part = P.Partitioned P.partitioned_defaults in
  let fused = P.Partitioned { P.partitioned_defaults with P.fuse = true } in
  let analytic = P.Partitioned { P.partitioned_defaults with P.window = P.Analytic } in
  let kernels = Ndp_workloads.Suite.all () in
  let mk scheme s (k : Ndp_core.Kernel.t) = { app = k.Ndp_core.Kernel.name; scheme; job = P.Job.make s k } in
  Array.of_list
    (List.concat_map
       (fun k -> [ mk "default" P.Default k; mk "partitioned" part k; mk "partitioned(analytic)" analytic k ])
       kernels
    @ List.filter_map
        (fun (k : Ndp_core.Kernel.t) ->
          if List.mem k.Ndp_core.Kernel.name fused_apps then Some (mk "partitioned+fuse" fused k) else None)
        kernels)

let label e = e.app ^ "/" ^ e.scheme

let same (a : P.result) (b : P.result) = a.P.exec_time = b.P.exec_time && Stats.equal a.P.stats b.P.stats

(* Default-scheme schedules are serialized by construction, and checking
   them costs seconds each; every other schedule is checked race-free. *)
let validate r entries (refs : P.result array) =
  Array.iteri
    (fun i e ->
      if e.scheme <> "default" then begin
        let res = P.Job.run { e.job with P.Job.validate = true } in
        let errors =
          List.filter Ndp_analysis.Diagnostic.is_error
            (Ndp_analysis.Validate.check_result ~kernel:e.job.P.Job.kernel res)
        in
        Report.op r
          (errors = [] && same res refs.(i))
          ~what:
            (Printf.sprintf "%s: %d schedule-validation errors%s" (label e) (List.length errors)
               (if same res refs.(i) then "" else ", result differs from the untraced run"))
      end)
    entries

let product r entries (refs : P.result array) =
  let find app scheme =
    let rec go i = if entries.(i).app = app && entries.(i).scheme = scheme then refs.(i) else go (i + 1) in
    go 0
  in
  let summary (x : P.result) = (Stats.hops x.P.stats, x.P.exec_time) in
  Report.product r
    (List.map
       (fun app -> (app, summary (find app "default"), summary (find app "partitioned")))
       Ndp_workloads.Suite.names)

(* One timed job run; [spans] is [Some] on traced passes. *)
type sample = { index : int; ms : float; words : float; spans : Ndp_obs.Span.t option; tasks : int }

(* Passes over every job, each in a fresh seeded order, until [seconds]
   have gone by, the run holds enough untraced samples for its 90th
   percentile, and the pass in progress is done. Under tracing, odd
   passes carry a span collector and even ones do not, so the tracing
   overhead compares the same jobs. Each result is checked, untimed,
   against the job's reference run. *)
let passes r entries (refs : P.result array) ~seed ~seconds ~trace =
  let rng = Gen.rng ~seed ~stream:1 in
  let samples = ref [] and untraced = ref 0 in
  let min_untraced = if trace then 0 else Pct.samples_for 0.9 in
  let t_start = Report.now () in
  let pass = ref 0 in
  while !pass = 0 || (trace && !pass < 2) || Report.now () -. t_start < seconds || !untraced < min_untraced do
    let traced = trace && !pass mod 2 = 1 in
    Array.iter
      (fun index ->
        let spans = if traced then Ndp_obs.Span.create () else Ndp_obs.Span.none in
        let obs = { Ndp_obs.Sink.none with Ndp_obs.Sink.spans } in
        let w0 = Report.words () in
        let t0 = Report.now () in
        let res = P.Job.run ~obs entries.(index).job in
        let ms = (Report.now () -. t0) *. 1000.0 in
        let words = Report.words () -. w0 in
        if not traced then incr untraced;
        Report.op r (same res refs.(index)) ~what:(label entries.(index) ^ ": repeat run differs from its first run");
        samples :=
          { index; ms; words; spans = (if traced then Some spans else None); tasks = Stats.tasks res.P.stats }
          :: !samples)
      (Gen.permutation rng (Array.length entries));
    incr pass
  done;
  (List.rev !samples, Report.now () -. t_start)

(* Phase self times summed over traced samples. *)
let phases samples =
  let acc = Layers.create () in
  List.iter (fun s -> Option.iter (Layers.absorb acc) s.spans) samples;
  acc

let run ~seed r ~seconds ~trace =
  (* Set-up: build the kernels and jobs, then the untimed reference pass
     whose results every later run of a job must reproduce and the
     product metrics are computed from. *)
  let entries, refs =
    Report.setup r ~reps:3
      (fun () ->
        let entries = entries () in
        (entries, Array.map (fun e -> P.Job.run e.job) entries))
      (fun (entries, refs) (_, again) ->
        Array.iteri
          (fun i x ->
            Report.op r (same x refs.(i))
              ~what:(label entries.(i) ^ ": reference run differs between set-ups"))
          again)
  in
  validate r entries refs;
  let samples, elapsed = passes r entries refs ~seed ~seconds ~trace in
  let untraced = List.filter (fun s -> s.spans = None) samples in
  if not trace then begin
    Report.latency r ~lat_ms:(List.map (fun s -> s.ms) untraced) ~elapsed_s:elapsed;
    (* Whole passes hold every job equally often, so the mean repeats
       from run to run. *)
    Report.add r "alloc_mwords_per_req" "Mwords" (Pct.mean (List.map (fun s -> s.words) untraced) /. 1e6);
    product r entries refs;
    Report.add r "peak_rss_mb" "MB" (Option.value (Report.peak_rss_mb ()) ~default:0.0)
  end
  else begin
    let traced = List.filter (fun s -> s.spans <> None) samples in
    let acc = phases traced in
    let n = float_of_int (max 1 (List.length traced)) in
    List.iter (fun p -> Report.add r (p ^ ".ms") "ms" (Layers.total acc p /. n)) Layers.compile_phases;
    Report.add r "simulate.ms" "ms" (Layers.sum acc Layers.sim_phases /. n);
    Report.add r "sim.us_per_task" "us"
      (1000.0 *. Layers.sum acc Layers.sim_phases /. float_of_int (max 1 (List.fold_left (fun k s -> k + s.tasks) 0 traced)));
    let compiling = List.filter (fun s -> entries.(s.index).scheme <> "default") traced in
    let compiling_ms = Pct.sum (List.map (fun s -> s.ms) compiling) in
    Report.add r "compile.share" "ratio"
      (if compiling_ms > 0.0 then Layers.sum (phases compiling) Layers.compile_phases /. compiling_ms else 0.0);
    let sim = Layers.Sim.create () in
    Array.iter (fun (x : P.result) -> Layers.Sim.add sim x.P.stats) refs;
    Layers.Sim.report sim r;
    Layers.decisions r (List.filteri (fun i _ -> entries.(i).scheme = "partitioned") (Array.to_list refs));
    Layers.reconcile r
      ~lat_ms:(List.map (fun s -> s.ms) untraced)
      ~lat_traced_ms:(List.map (fun s -> s.ms) traced)
      ~phase_ms:(Layers.sum acc Layers.program_phases)
  end
