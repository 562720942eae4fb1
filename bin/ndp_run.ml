(* Command-line driver: compile one of the suite's application kernels
   under a placement scheme and simulate it on the KNL-like mesh.

     ndp_run list
     ndp_run run barnes --scheme partitioned --cluster quadrant --memory flat
     ndp_run compare water --window 4
     ndp_run stats ocean --format json
     ndp_run trace mg -o trace.json
     ndp_run codegen fft

   Every subcommand is an entry in the declarative [commands] table below:
   name, one-line summary, and a term built from the shared flag specs in
   [Args]. Help output is generated from the table.

   A subcommand that runs a job turns its flags into a [Protocol.job_spec]
   ([Args.spec]) and resolves it with [Service.job_of_spec] ([with_job]) —
   the same table the serve daemon resolves wire requests with. *)

open Cmdliner
module Render = Ndp_obs.Render
module Metrics = Ndp_obs.Metrics
module Trace = Ndp_obs.Trace
module Stats = Ndp_sim.Stats
module Pipeline = Ndp_core.Pipeline
module Service = Ndp_serve.Service
module Protocol = Ndp_serve.Protocol

(* ------------------------------------------------------------------ *)
(* Shared flag specs                                                   *)

module Args = struct
  let kernel_conv =
    let parse name =
      match Ndp_workloads.Suite.find name with
      | k -> Ok k
      | exception Not_found ->
        Error (`Msg (Printf.sprintf "unknown application %S (try `ndp_run list')" name))
    in
    Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf k.Ndp_core.Kernel.name)

  let kernel =
    Arg.(
      required & pos 0 (some kernel_conv) None & info [] ~docv:"APP" ~doc:"Application kernel name.")

  (* The job-building subcommands take the name as-is: [Service.job_of_spec]
     resolves it, with every other field of the spec. *)
  let app =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Application kernel name.")

  let kernel_opt =
    Arg.(
      value
      & pos 0 (some kernel_conv) None
      & info [] ~docv:"APP" ~doc:"Check one application only (default: the whole suite).")

  let cluster =
    Arg.(
      value
      & opt string "quadrant"
      & info [ "cluster" ] ~doc:"Cluster mode: all-to-all, quadrant or snc-4.")

  let memory =
    Arg.(value & opt string "flat" & info [ "memory" ] ~doc:"Memory mode: flat, cache or hybrid.")

  let window =
    Arg.(
      value
      & opt string "adaptive"
      & info [ "window" ]
          ~doc:
            "Window size: a fixed integer of at least 1, $(b,adaptive) — each nest sized with \
             the closed-form static cost model — or $(b,analytic), an alias of $(b,adaptive) \
             kept for its scheme name $(b,partitioned\\(analytic\\)).")

  let threshold =
    Arg.(
      value
      & opt float 4.0
      & info [ "threshold" ] ~docv:"R"
          ~doc:
            "Maximum tolerated total divergence ratio between the static cost model and the \
             measured ledger, as max(static,measured)/min(static,measured) ($(b,analyze) \
             only). The static model prices compiler-visible movement; runtime adds traffic \
             it cannot see (misses, syncs, inspector), so suite ratios sit between x1 and \
             x3.2. Exceeding the threshold exits nonzero.")

  let scheme =
    Arg.(
      value
      & opt (enum [ ("default", "default"); ("partitioned", "partitioned") ]) "partitioned"
      & info [ "scheme" ] ~doc:"Computation placement: default or partitioned.")

  (* The one output-format vocabulary, shared by check/stats/trace/run. *)
  let format =
    Arg.(
      value
      & opt (enum Render.all_formats) Render.Human
      & info [ "format" ] ~doc:"Output format: human, sexp, json or jsonl.")

  let metrics =
    Arg.(
      value
      & flag
      & info [ "metrics" ]
          ~doc:"Collect the metrics registry during the run and dump it after the result.")

  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ]
          ~doc:
            "Number of domains for parallel work ($(b,check)'s validation cells; \
             $(b,serve)'s batch and sweep fan-out). Default: \\$(b,NDP_JOBS) or the \
             recommended domain count. Output is identical at any job count.")

  let out_file =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file; \"-\" writes to stdout.")

  let selfcheck =
    Arg.(
      value
      & flag
      & info [ "selfcheck" ]
          ~doc:
            "Reconcile the trace against the aggregate statistics (task-event count, finish \
             time, timestamp monotonicity) and exit nonzero on mismatch.")

  let interval =
    Arg.(
      value
      & opt int 1000
      & info [ "interval" ] ~docv:"N"
          ~doc:
            "Timeline sampling interval in simulated cycles ($(b,profile) only). 0 disables \
             the timeline and keeps just the movement ledger.")

  let top =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"K"
          ~doc:"Rows shown in the top-K movement-source table ($(b,profile) only).")

  let profile_out =
    Arg.(
      value
      & opt string ""
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome/Perfetto trace — task events plus one counter track per \
             timeline series — to FILE; \"-\" writes it to stdout.")

  let spans =
    Arg.(
      value
      & flag
      & info [ "spans" ]
          ~doc:
            "Collect per-phase pipeline spans (parse/deps/window/fusion/schedule/simulate) \
             and append them to the output: a $(b,spans) object under $(b,--format json), a \
             per-phase summary table under $(b,--format human), nested slices in the \
             Perfetto trace written by $(b,-o).")

  let faults =
    Arg.(
      value
      & opt string ""
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated fault spec: $(b,kill=N) or $(b,kill=A>B) (kill N random links / \
             one specific link), $(b,slow=NxF) or $(b,slow=A>BxF) (degrade links by factor F), \
             $(b,stall=NODE\\@START+LEN) (node stall window), $(b,mc=NODExF) (backpressure the \
             MC nearest NODE). Empty spec injects nothing.")

  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed"; "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the plan's random choices (which links $(b,kill=N) removes). Default: the \
             simulator config's seed. A fixed seed gives byte-identical runs at any --jobs.")

  let repair =
    Arg.(
      value
      & flag
      & info [ "repair" ]
          ~doc:
            "Hand the fault plan to the compiler as well: partition over the surviving mesh \
             with degraded link weights and remap subcomputations off stalled/isolated nodes.")

  let fuse =
    Arg.(
      value
      & flag
      & info [ "fuse" ]
          ~doc:
            "Fuse producer$(b,->)consumer statement chains before MST scheduling (partitioned \
             scheme only): each fused group runs on one node and intermediate store write-backs \
             stay in that node's L1 instead of crossing the NoC.")

  let fuse_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuse-capacity" ] ~docv:"BYTES"
          ~doc:
            "L1 footprint budget per fused group in bytes (with $(b,--fuse)). Default: the \
             config's L1 size. 0 disables fusion (identity pass).")

  let fusion =
    Arg.(
      value
      & flag
      & info [ "fusion" ]
          ~doc:
            "$(b,analyze) only: report the fusion decision table instead of the static cost \
             table — each fused chain with its predicted saved flit-hops reconciled against the \
             measured delta between an unfused and a fused run.")

  (* The flags of a job, as the wire spec the daemon would receive.
     Subcommands differ only in which of these flags they offer; one they
     lack keeps its wire default. *)
  let spec ?(scheme = scheme) ?(fuse = Term.const false) ?(faults = Term.const "")
      ?(fault_seed = Term.const None) ?(repair = Term.const false) app_arg =
    let make app cluster memory scheme window fuse faults fault_seed repair =
      {
        Protocol.app;
        scheme = (if fuse && scheme = "partitioned" then "partitioned+fuse" else scheme);
        window;
        cluster;
        memory;
        tweaks = Pipeline.no_tweaks;
        faults;
        fault_seed;
        repair;
      }
    in
    Term.(
      const make $ app_arg $ cluster $ memory $ scheme $ window $ fuse $ faults $ fault_seed
      $ repair)
end

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

(* A spec field [Service] refused, as a usage error (exit 124) on the
   argument that carried it. *)
let resolved f = function
  | Ok x -> f x
  | Error { Service.field = "app"; reason } ->
    `Error (true, Printf.sprintf "APP argument: %s (try `ndp_run list')" reason)
  | Error { Service.field; reason } ->
    `Error (true, Printf.sprintf "option '--%s': %s" field reason)

(* The one way the CLI builds a job: [Service.job_of_spec], the daemon's
   own table. --fuse-capacity has no wire spelling, so it is applied
   here, to the resolved partitioned scheme. *)
let with_job ?fuse_capacity spec f =
  Service.job_of_spec spec
  |> resolved @@ fun (job : Pipeline.Job.t) ->
     match (fuse_capacity, job.Pipeline.Job.scheme) with
     | Some _, Pipeline.Partitioned o ->
       f { job with Pipeline.Job.scheme = Pipeline.Partitioned { o with Pipeline.fuse_capacity } }
     | _ -> f job

(* ------------------------------------------------------------------ *)
(* run / compare                                                       *)

let run_act spec fuse_capacity metrics format =
  with_job ?fuse_capacity spec @@ fun job ->
  let o = Service.run ~metrics job in
  print_endline (Render.output format ~human:o.Service.human o.Service.doc);
  `Ok ()

let compare_act spec metrics format =
  with_job { spec with Protocol.scheme = "default" } @@ fun default_job ->
  with_job spec @@ fun job ->
  let od = Service.run ~metrics default_job in
  let oo = Service.run ~metrics job in
  let d = od.Service.result and o = oo.Service.result in
  let imp base opt = 100.0 *. float_of_int (base - opt) /. float_of_int (max 1 base) in
  let exec_imp = imp d.Pipeline.exec_time o.Pipeline.exec_time in
  let move_imp = imp (Stats.hops d.Pipeline.stats) (Stats.hops o.Pipeline.stats) in
  let doc =
    Render.Json.Obj
      [
        ("default", od.Service.doc);
        ("partitioned", oo.Service.doc);
        ( "improvement",
          Render.Json.Obj
            [ ("exec_pct", Render.Json.Float exec_imp); ("movement_pct", Render.Json.Float move_imp) ]
        );
      ]
  in
  let human () =
    String.concat "\n"
      [
        od.Service.human ();
        "";
        oo.Service.human ();
        "";
        Printf.sprintf "improvement: exec %.1f%%, movement %.1f%%" exec_imp move_imp;
      ]
  in
  print_endline (Render.output format ~human doc);
  `Ok ()

(* ------------------------------------------------------------------ *)
(* stats: per-node / per-link breakdown                                *)

let lookup_int reg name =
  match Metrics.find reg name with Some (Metrics.Counter_v v) -> v | _ -> 0

let node_table reg n =
  let t =
    Ndp_prelude.Table.create
      ~header:[ "node"; "tasks"; "busy"; "l1_hits"; "l1_miss"; "l2_hits"; "l2_miss"; "mc_reqs" ]
  in
  for i = 0 to n - 1 do
    let g fam key = lookup_int reg (Printf.sprintf "%s{%s=%d}" fam key i) in
    Ndp_prelude.Table.add_row t
      [
        string_of_int i;
        string_of_int (g "core.tasks" "node");
        string_of_int (g "core.busy_cycles" "node");
        string_of_int (g "mem.l1_hits" "node");
        string_of_int (g "mem.l1_misses" "node");
        string_of_int (g "mem.l2_bank_hits" "bank");
        string_of_int (g "mem.l2_bank_misses" "bank");
        string_of_int (g "mem.mc_requests" "node");
      ]
  done;
  Ndp_prelude.Table.render t

let link_table reg =
  let t = Ndp_prelude.Table.create ~header:[ "link"; "flits"; "busy_cycles" ] in
  let prefix = "noc.link_flits{" in
  List.iter
    (fun (name, sample) ->
      match sample with
      | Metrics.Counter_v flits when Astring.String.is_prefix ~affix:prefix name ->
        let label = String.sub name (String.length prefix) (String.length name - String.length prefix - 1) in
        let busy = lookup_int reg (Printf.sprintf "noc.link_busy_cycles{%s}" label) in
        Ndp_prelude.Table.add_row t [ label; string_of_int flits; string_of_int busy ]
      | _ -> ())
    (Metrics.to_alist reg);
  Ndp_prelude.Table.render t

let stats_act spec format =
  with_job spec @@ fun job ->
  let obs = Ndp_obs.Sink.create ~metrics:true ~trace:false () in
  let r = Pipeline.Job.run ~obs job in
  let reg = obs.Ndp_obs.Sink.metrics in
  let n = Ndp_noc.Mesh.size (Ndp_sim.Config.mesh job.Pipeline.Job.config) in
  let doc =
    Render.Json.Obj [ ("result", Service.result_json r); ("metrics", Service.metrics_json reg) ]
  in
  let human () =
    String.concat "\n"
      [
        Service.result_human r;
        "";
        "per-node:";
        node_table reg n;
        "per-link (nonzero):";
        link_table reg;
      ]
  in
  print_endline (Render.output format ~human doc);
  `Ok ()

(* ------------------------------------------------------------------ *)
(* inject: deterministic fault injection + schedule repair             *)

module Plan = Ndp_fault.Plan

(* Invariants of a fault run, verified by re-execution:
   1. determinism — an identical second run (a fresh plan resolved from
      the same spec, hence the same seed) produces identical stats and
      finish time;
   2. an empty plan is byte-identical to running without one;
   3. under --repair, nodes the plan avoids end the run with zero busy
      cycles (every subcomputation was remapped off them);
   4. a non-empty plan surfaces its fault.* instruments in the registry. *)
let inject_selfcheck spec (job : Pipeline.Job.t) (o : Service.inject_outcome) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let r = o.Service.i_result and plan = o.Service.i_plan in
  let rerun = Pipeline.Job.run (Result.get_ok (Service.job_of_spec spec)) in
  if not (Stats.equal r.Pipeline.stats rerun.Pipeline.stats) then
    fail "re-run with the same seed changed the statistics";
  if r.Pipeline.exec_time <> rerun.Pipeline.exec_time then
    fail "re-run with the same seed changed the finish time (%d <> %d)" r.Pipeline.exec_time
      rerun.Pipeline.exec_time;
  if Plan.is_empty plan then begin
    let bare =
      Pipeline.Job.run { job with Pipeline.Job.faults = None; repair = false }
    in
    if not (Stats.equal r.Pipeline.stats bare.Pipeline.stats) then
      fail "an empty fault plan changed the statistics vs a plain run"
  end
  else begin
    (match Metrics.find o.Service.i_reg "fault.link_retries" with
    | Some _ -> ()
    | None -> fail "non-empty plan but fault.link_retries is not in the registry");
    if job.Pipeline.Job.repair then
      List.iter
        (fun node ->
          if r.Pipeline.node_busy.(node) <> 0 then
            fail "repair left %d busy cycles on avoided node %d" r.Pipeline.node_busy.(node)
              node)
        (Plan.avoided_nodes plan)
  end;
  match !failures with
  | [] ->
    let killed, degraded, stalled, mcs = Plan.counts plan in
    Printf.printf
      "inject selfcheck: ok (killed=%d degraded=%d stalled=%d mcs=%d remapped=%d)\n" killed
      degraded stalled mcs r.Pipeline.remapped_tasks
  | fs ->
    List.iter (Printf.eprintf "inject selfcheck: %s\n") (List.rev fs);
    exit 1

let inject_act spec format selfcheck =
  with_job spec @@ fun job ->
  let o = Service.inject ~spec:spec.Protocol.faults job in
  print_endline (Render.output format ~human:o.Service.i_human o.Service.i_doc);
  if selfcheck then inject_selfcheck spec job o;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* trace: Chrome trace_event JSON                                      *)

let trace_selfcheck tracer (r : Pipeline.result) =
  let events = Trace.events tracer in
  let tasks = List.filter (fun e -> e.Trace.kind = Trace.Task) events in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let stats_tasks = Stats.tasks r.Pipeline.stats in
  (* A lossy trace cannot vouch for anything: dropped events mean the ring
     overwrote history, so the check fails rather than passing silently. *)
  if Trace.dropped tracer > 0 then
    fail "%d events dropped (ring capacity %d exceeded): the trace is not faithful"
      (Trace.dropped tracer) (Trace.length tracer);
  if Trace.dropped tracer = 0 && List.length tasks <> stats_tasks then
    fail "task events %d <> stats tasks %d" (List.length tasks) stats_tasks;
  let max_end = List.fold_left (fun acc e -> max acc e.Trace.end_ts) 0 tasks in
  let finish = Stats.finish_time r.Pipeline.stats in
  if tasks <> [] && max_end <> finish then
    fail "max task end %d <> finish time %d" max_end finish;
  let sorted = Trace.sorted_events tracer in
  let rec monotonic = function
    | a :: (b :: _ as rest) -> a.Trace.start_ts <= b.Trace.start_ts && monotonic rest
    | _ -> true
  in
  if not (monotonic sorted) then fail "rendered timestamps are not monotonic";
  List.iter
    (fun e ->
      if e.Trace.end_ts < e.Trace.start_ts then
        fail "event %s id %d ends before it starts" e.Trace.name e.Trace.id)
    events;
  match !failures with
  | [] ->
    Printf.printf "trace selfcheck: ok (%d events, %d tasks, %d dropped)\n"
      (Trace.length tracer) (List.length tasks) (Trace.dropped tracer)
  | fs ->
    List.iter (Printf.eprintf "trace selfcheck: %s\n") (List.rev fs);
    exit 1

let trace_act spec out format selfcheck =
  with_job spec @@ fun job ->
  let obs = Ndp_obs.Sink.create ~metrics:true ~trace:true () in
  let r = Pipeline.Job.run ~obs job in
  let tracer = obs.Ndp_obs.Sink.trace in
  let payload =
    match format with
    | Render.Jsonl -> Trace.to_jsonl tracer
    | Render.Sexp -> Render.json_to_sexp (Render.Json.Str "use --format json or jsonl")
    | Render.Human | Render.Json -> Trace.to_chrome tracer
  in
  (match out with
  | "-" -> print_string payload
  | file ->
    let oc = open_out file in
    output_string oc payload;
    close_out oc;
    Printf.printf "wrote %s (%d events, %d dropped)\n" file (Trace.length tracer)
      (Trace.dropped tracer));
  if selfcheck then trace_selfcheck tracer r;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* profile: movement attribution ledger + counter timeline             *)

let profile_act spec interval top out spans format =
  with_job spec @@ fun job ->
  let want_trace = out <> "" in
  let sp = if spans then Ndp_obs.Span.create () else Ndp_obs.Span.none in
  let o = Service.profile ~trace:want_trace ~spans:sp ~interval ~top job in
  let obs = o.Service.p_sink in
  let timeline = obs.Ndp_obs.Sink.timeline in
  if want_trace then begin
    let payload =
      Trace.to_chrome
        ~counters:(Ndp_obs.Timeline.chrome_counter_events timeline)
        ~spans:sp obs.Ndp_obs.Sink.trace
    in
    match out with
    | "-" -> print_string payload
    | file ->
      let oc = open_out file in
      output_string oc payload;
      close_out oc;
      Printf.printf "wrote %s (%d events + %d counter samples)\n" file
        (Trace.length obs.Ndp_obs.Sink.trace)
        (List.length (Ndp_obs.Timeline.chrome_counter_events timeline))
  end;
  (* The service keeps spans out of the shared document (daemon bodies
     must stay byte-identical); --spans composes them into the CLI
     output here. *)
  let doc =
    if not spans then o.Service.p_doc
    else
      match o.Service.p_doc with
      | Render.Json.Obj fields ->
        Render.Json.Obj (fields @ [ ("spans", Ndp_obs.Span.to_json sp) ])
      | other -> other
  in
  let human () =
    if not spans then o.Service.p_human ()
    else o.Service.p_human () ^ "\nphase spans\n" ^ Ndp_obs.Span.summary_table sp
  in
  print_endline (Render.output format ~human doc);
  if not o.Service.p_reconciled then begin
    Printf.eprintf "ndp_run profile: ledger flit-hops %d do not reconcile with noc.link_flits %d\n"
      o.Service.p_measured o.Service.p_link_flits;
    exit 1
  end;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* analyze: static cost table reconciled against a measured run        *)

let analyze_act spec fuse_capacity fusion threshold format =
  with_job ?fuse_capacity spec @@ fun job ->
  if fusion then begin
    (* The decision table: [analyze_fusion] forces the fused/unfused pair
       itself, so --fusion works with or without --fuse. *)
    let o = Service.analyze_fusion job in
    print_endline (Render.output format ~human:o.Service.f_human o.Service.f_doc)
  end
  else begin
    let o = Service.analyze ~threshold job in
    print_endline (Render.output format ~human:o.Service.a_human o.Service.a_doc);
    if not o.Service.a_within then begin
      Printf.eprintf
        "ndp_run analyze: static model diverges from the measured ledger: static %d vs measured \
         %d flit-hops (%s > x%.2f)\n"
        o.Service.a_static_total o.Service.a_measured_total
        (Service.ratio_cell o.Service.a_ratio) threshold;
      exit 1
    end
  end;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* list / codegen / dot / check                                        *)

let list_act () =
  List.iter
    (fun name ->
      let k = Ndp_workloads.Suite.find name in
      Printf.printf "%-10s %s\n" name k.Ndp_core.Kernel.description)
    Ndp_workloads.Suite.names

let codegen_act kernel =
  (* Render the subcomputation program of the first window of the first
     nest, Figure 8 style. *)
  let ctx = Pipeline.static_context Pipeline.Default kernel in
  let nodes = Ndp_noc.Mesh.size (Ndp_sim.Machine.mesh ctx.Ndp_core.Context.machine) in
  match kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests with
  | [] -> prerr_endline "kernel has no loop nests"
  | nest :: _ ->
    let envs = Ndp_ir.Loop.iterations nest in
    let metas =
      List.concat
        (List.mapi
           (fun ii env ->
             List.mapi
               (fun si stmt ->
                 {
                   Ndp_core.Window.group = (ii * List.length nest.Ndp_ir.Loop.body) + si;
                   default_node = ii mod nodes;
                   inst = { Ndp_ir.Dependence.stmt_idx = si; stmt; env };
                 })
               nest.Ndp_ir.Loop.body)
           envs)
    in
    let window = List.filteri (fun i _ -> i < 4) metas in
    let compiled = Ndp_core.Window.compile ctx window in
    List.iter
      (fun (m : Ndp_core.Window.meta) ->
        Printf.printf "S%d: %s  %s\n" m.Ndp_core.Window.group
          (Ndp_ir.Stmt.to_string m.Ndp_core.Window.inst.Ndp_ir.Dependence.stmt)
          (Format.asprintf "%a" Ndp_ir.Env.pp m.Ndp_core.Window.inst.Ndp_ir.Dependence.env))
      window;
    print_newline ();
    print_endline (Ndp_core.Codegen.emit (List.map fst compiled.Ndp_core.Window.tasks))

let dot_act kernel =
  let ctx = Pipeline.static_context Pipeline.Default kernel in
  match kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests with
  | [] -> prerr_endline "kernel has no loop nests"
  | nest :: _ ->
    let env = List.hd (Ndp_ir.Loop.iterations nest) in
    let stmt = List.hd nest.Ndp_ir.Loop.body in
    let split = Ndp_core.Splitter.split ctx ~store_node:0 stmt env in
    print_endline (Ndp_core.Graphviz.statement_mst split);
    let metas =
      List.mapi
        (fun si stmt ->
          {
            Ndp_core.Window.group = si;
            default_node = 0;
            inst = { Ndp_ir.Dependence.stmt_idx = si; stmt; env };
          })
        nest.Ndp_ir.Loop.body
    in
    let compiled = Ndp_core.Window.compile ctx metas in
    print_endline (Ndp_core.Graphviz.task_graph compiled.Ndp_core.Window.tasks)

let check_act kernel spec fuse format jobs =
  let ( let* ) = Result.bind in
  let scheme name = Service.scheme_of_spec { spec with Protocol.scheme = name } in
  (let* config = Service.config_of_spec spec in
   let* partitioned = scheme "partitioned" in
   let* fused = scheme "partitioned+fuse" in
   Ok (config, partitioned, fused))
  |> resolved @@ fun (config, partitioned, fused) ->
  let kernels =
    match kernel with
    | Some k -> [ k ]
    | None -> List.map Ndp_workloads.Suite.find Ndp_workloads.Suite.names
  in
  let jobs = match jobs with Some j -> max 1 j | None -> Ndp_prelude.Pool.default_jobs () in
  let schemes = [ Pipeline.Default; partitioned ] @ if fuse then [ fused ] else [] in
  (* W204 checks a concrete size against each nest; only a fixed window
     gives it one. *)
  let fixed =
    match partitioned with
    | Pipeline.Partitioned { Pipeline.window = Pipeline.Fixed k; _ } -> Some k
    | _ -> None
  in
  let reports = Ndp_analysis.Checker.check_suite ~config ?window:fixed ~jobs ~schemes kernels in
  print_endline (Ndp_analysis.Checker.render ~format reports);
  if Ndp_analysis.Checker.has_errors reports then exit 1;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* serve / client: the compile-as-a-service daemon and its CLI client  *)

(* The canonical demo session: exercises compile sharing (the repeated
   Run and the Compile/Sweep pair) and ends with deterministic cache
   counters plus a clean shutdown. [serve --demo-requests] prints it;
   the golden tests feed it back through [serve --stdio]. *)
let demo_requests () =
  let spec = Protocol.default_spec ~app:"fft" in
  let sweep_variants =
    [
      { Protocol.v_name = "baseline"; v_overrides = []; v_tweaks = Pipeline.no_tweaks };
      { Protocol.v_name = "hop-cycles-8"; v_overrides = [ ("hop_cycles", 8) ]; v_tweaks = Pipeline.no_tweaks };
    ]
  in
  let session =
    [
      Protocol.Ping;
      Protocol.List_apps;
      Protocol.Run { spec; metrics = false };
      Protocol.Run { spec; metrics = false };
      Protocol.Compile spec;
      Protocol.Sweep { spec; variants = sweep_variants };
      Protocol.Cache_stats;
      Protocol.Shutdown;
    ]
  in
  List.iteri (fun i req -> Protocol.write_request stdout ~id:(i + 1) req) session;
  flush stdout

let serve_act socket stdio demo result_capacity schedule_capacity access_log slow_ms jobs =
  if demo then demo_requests ()
  else begin
    let access_oc = if access_log = "" then None else Some (open_out access_log) in
    let server =
      Ndp_serve.Server.create ?jobs ~result_capacity ~schedule_capacity ?access_log:access_oc
        ?slow_ms ()
    in
    if stdio then Ndp_serve.Server.serve_channels server stdin stdout
    else if socket = "" then begin
      prerr_endline "ndp_run serve: --socket PATH required (or --stdio / --demo-requests)";
      exit 2
    end
    else begin
      Printf.eprintf "ndp_run serve: listening on %s\n%!" socket;
      Ndp_serve.Server.serve server ~socket_path:socket
    end;
    Ndp_serve.Server.shutdown server;
    Option.iter close_out access_oc
  end

(* Sim-side cost-model variants for [client sweep]: the same standard
   set the bench replays, minus the tweak-based ones (sweep over the
   wire carries config overrides). *)
let client_sweep_variants =
  List.map
    (fun (v_name, v_overrides) -> { Protocol.v_name; v_overrides; v_tweaks = Pipeline.no_tweaks })
    [
      ("baseline", []);
      ("hop-cycles-8", [ ("hop_cycles", 8) ]);
      ("hop-cycles-32", [ ("hop_cycles", 32) ]);
      ("ddr-cycles-520", [ ("ddr_cycles", 520) ]);
      ("op-cycles-16", [ ("op_cycles", 16) ]);
      ("l2-hit-cycles-36", [ ("l2_hit_cycles", 36) ]);
    ]

let client_act op spec socket interval top threshold metrics meta =
  if socket = "" then begin
    prerr_endline "ndp_run client: --socket PATH required";
    exit 2
  end;
  let send request =
    match Ndp_serve.Client.connect socket with
    | Error msg ->
      Printf.eprintf "ndp_run client: %s\n" msg;
      exit 1
    | Ok client -> (
      let r = Ndp_serve.Client.rpc client request in
      Ndp_serve.Client.close client;
      match r with
      | Error msg ->
        Printf.eprintf "ndp_run client: %s\n" msg;
        exit 1
      | Ok (env, body) ->
        if meta then
          Printf.eprintf "id=%d ok=%b cached=%b key=%s\n" env.Protocol.id env.Protocol.ok
            env.Protocol.cached env.Protocol.key;
        print_endline body;
        if not env.Protocol.ok then exit 1;
        `Ok ())
  in
  (* The spec is resolved before it is sent, so a bad flag is the same
     usage error here as on every other subcommand. *)
  let with_spec request =
    if spec.Protocol.app = "" then begin
      prerr_endline "ndp_run client: this operation needs an APP argument";
      exit 2
    end;
    with_job spec @@ fun _ -> send (request spec)
  in
  match op with
  | `Ping -> send Protocol.Ping
  | `List -> send Protocol.List_apps
  | `Run -> with_spec (fun spec -> Protocol.Run { spec; metrics })
  | `Compile -> with_spec (fun spec -> Protocol.Compile spec)
  | `Profile -> with_spec (fun spec -> Protocol.Profile { spec; interval; top })
  | `Analyze -> with_spec (fun spec -> Protocol.Analyze { spec; threshold })
  | `Inject -> with_spec (fun spec -> Protocol.Inject spec)
  | `Sweep -> with_spec (fun spec -> Protocol.Sweep { spec; variants = client_sweep_variants })
  | `Cache_stats -> send Protocol.Cache_stats
  | `Metrics -> send Protocol.Metrics_dump
  | `Metrics_text -> send Protocol.Metrics_text
  | `Shutdown -> send Protocol.Shutdown

(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string ""
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the serve daemon.")

let stdio_arg =
  Arg.(
    value
    & flag
    & info [ "stdio" ]
        ~doc:"Serve one framed session over stdin/stdout instead of binding a socket.")

let access_log_arg =
  Arg.(
    value
    & opt string ""
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Append one JSON line per request to FILE: sequence number, request id, op, cache \
           key, hit/miss, latency ms, response bytes and the per-phase span breakdown.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Print a span breakdown to stderr for every request slower than MS milliseconds.")

let demo_arg =
  Arg.(
    value
    & flag
    & info [ "demo-requests" ]
        ~doc:
          "Print the canonical demo request stream (a framed \
           ping/list/run/run/compile/sweep/cache-stats/shutdown session) and exit; pipe it \
           back through $(b,serve --stdio).")

let result_capacity_arg =
  Arg.(
    value
    & opt int 256
    & info [ "result-cache" ] ~docv:"N" ~doc:"Result-cache capacity (rendered response bodies).")

let schedule_capacity_arg =
  Arg.(
    value
    & opt int 64
    & info [ "schedule-cache" ] ~docv:"N" ~doc:"Schedule-cache capacity (captured compiles).")

let meta_arg =
  Arg.(
    value
    & flag
    & info [ "meta" ] ~doc:"Print the response envelope (id/ok/cached/key) to stderr.")

let op_arg =
  let ops =
    [
      ("ping", `Ping);
      ("list", `List);
      ("run", `Run);
      ("compile", `Compile);
      ("profile", `Profile);
      ("analyze", `Analyze);
      ("inject", `Inject);
      ("sweep", `Sweep);
      ("cache-stats", `Cache_stats);
      ("metrics", `Metrics);
      ("metrics-text", `Metrics_text);
      ("shutdown", `Shutdown);
    ]
  in
  Arg.(
    required
    & pos 0 (some (enum ops)) None
    & info [] ~docv:"OP"
        ~doc:
          "Operation: ping, list, run, compile, profile, analyze, inject, sweep, cache-stats, \
           metrics, metrics-text (Prometheus text exposition) or shutdown.")

let client_app =
  Arg.(
    value
    & pos 1 string ""
    & info [] ~docv:"APP"
        ~doc:"Application kernel name (run/compile/profile/analyze/inject/sweep only).")

(* ------------------------------------------------------------------ *)
(* Command table                                                       *)

type command = { name : string; summary : string; term : unit Term.t }

let commands =
  [
    {
      name = "run";
      summary = "Compile and simulate one application.";
      term =
        Term.(
          ret
            (const run_act $ Args.spec ~fuse:Args.fuse Args.app $ Args.fuse_capacity
           $ Args.metrics $ Args.format));
    };
    {
      name = "compare";
      summary = "Run default and partitioned placements and compare.";
      term =
        Term.(
          ret
            (const compare_act
            $ Args.spec ~scheme:(const "partitioned") ~fuse:Args.fuse Args.app
            $ Args.metrics $ Args.format));
    };
    {
      name = "stats";
      summary = "Simulate with metrics enabled and print per-node/per-link breakdowns.";
      term =
        Term.(ret (const stats_act $ Args.spec ~fuse:Args.fuse Args.app $ Args.format));
    };
    {
      name = "inject";
      summary =
        "Simulate under a deterministic fault plan (killed/degraded links, node stalls, MC \
         backpressure), optionally repairing the schedule around it.";
      term =
        Term.(
          ret
            (const inject_act
            $ Args.spec ~faults:Args.faults ~fault_seed:Args.fault_seed ~repair:Args.repair
                Args.app
            $ Args.format $ Args.selfcheck));
    };
    {
      name = "trace";
      summary = "Simulate with tracing enabled and write Chrome trace_event JSON (Perfetto).";
      term =
        Term.(
          ret
            (const trace_act $ Args.spec Args.app $ Args.out_file $ Args.format $ Args.selfcheck));
    };
    {
      name = "profile";
      summary =
        "Simulate with the data-movement attribution ledger and counter timeline enabled: \
         top-K movement sources, predicted-vs-measured reconciliation, optional Perfetto \
         counter tracks.";
      term =
        Term.(
          ret
            (const profile_act $ Args.spec Args.app $ Args.interval $ Args.top $ Args.profile_out
           $ Args.spans $ Args.format));
    };
    {
      name = "analyze";
      summary =
        "Static cost model: symbolic footprints, reuse classes and closed-form per-statement \
         movement, reconciled against the measured ledger of one run; exit nonzero when the \
         totals diverge beyond --threshold. With --fusion, report the fusion decision table \
         (predicted vs measured saved flit-hops per fused chain) instead.";
      term =
        Term.(
          ret
            (const analyze_act $ Args.spec ~fuse:Args.fuse Args.app $ Args.fuse_capacity
           $ Args.fusion $ Args.threshold $ Args.format));
    };
    { name = "list"; summary = "List the application kernels."; term = Term.(const list_act $ const ()) };
    {
      name = "codegen";
      summary = "Show the generated per-node subcomputation program for one window.";
      term = Term.(const codegen_act $ Args.kernel);
    };
    {
      name = "dot";
      summary = "Emit Graphviz DOT for a statement MST and one window's task graph.";
      term = Term.(const dot_act $ Args.kernel);
    };
    {
      name = "serve";
      summary =
        "Run the compile-as-a-service daemon: accept framed JSON requests on a Unix-domain \
         socket (or stdin with --stdio) and answer them from content-addressed result and \
         schedule caches.";
      term =
        Term.(
          const serve_act $ socket_arg $ stdio_arg $ demo_arg $ result_capacity_arg
          $ schedule_capacity_arg $ access_log_arg $ slow_ms_arg $ Args.jobs);
    };
    {
      name = "client";
      summary = "Send one request to a running serve daemon and print the response body.";
      term =
        Term.(
          ret
            (const client_act $ op_arg
            $ Args.spec ~faults:Args.faults ~fault_seed:Args.fault_seed ~repair:Args.repair
                client_app
            $ socket_arg $ Args.interval $ Args.top $ Args.threshold $ Args.metrics $ meta_arg));
    };
    {
      name = "check";
      summary =
        "Lint every kernel's IR and validate the compiled schedules (dependence race detection) \
         under the default and partitioned schemes — plus the fused partitioned scheme with \
         --fuse; exit nonzero on any error.";
      term =
        Term.(
          ret
            (const check_act $ Args.kernel_opt
            $ Args.spec ~scheme:(const "partitioned") (const "")
            $ Args.fuse $ Args.format $ Args.jobs));
    };
  ]

let () =
  let info = Cmd.info "ndp_run" ~doc:"Data-movement-aware computation partitioning playground." in
  let cmds = List.map (fun c -> Cmd.v (Cmd.info c.name ~doc:c.summary) c.term) commands in
  exit (Cmd.eval (Cmd.group info cmds))
