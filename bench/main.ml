(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the simulated manycore, plus Bechamel
   micro-benchmarks of the compiler itself.

   Subcommands live in the declarative [commands] table at the bottom
   (name, summary, run function); usage is generated from it.

   Usage:
     main.exe            run all tables + figures
     main.exe all        tables + figures + ablations + micro
     main.exe table1     one artifact (table1..table3, fig13..fig24,
                         heatmap, summary)
     main.exe ablation   the DESIGN.md ablations
     main.exe micro      Bechamel micro-benchmarks (incl. observability
                         overhead against one unobserved baseline) *)

module E = Ndp_experiments

(* A 256-instance sample of cholesky's first nest, with a compile context,
   for the window-sizer benchmark. *)
let choose_size_fixture () =
  let kernel = Ndp_workloads.Suite.find "cholesky" in
  let config = Ndp_sim.Config.default in
  let machine = Ndp_sim.Machine.create config in
  let insp = Ndp_core.Kernel.inspector kernel in
  Ndp_ir.Inspector.run insp;
  let address_of = Ndp_core.Kernel.address_of kernel in
  let ctx =
    Ndp_core.Context.create ~machine
      ~compiler_resolve:(Ndp_ir.Inspector.compiler_resolver insp ~address_of)
      ~runtime_resolve:(Ndp_ir.Inspector.runtime_resolver insp ~address_of)
      ~arrays:kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.arrays
      ~options:(Ndp_core.Context.default_options config) ()
  in
  let nest = List.hd kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests in
  let mesh_size = Ndp_noc.Mesh.size (Ndp_sim.Machine.mesh machine) in
  let body_len = List.length nest.Ndp_ir.Loop.body in
  let metas =
    List.concat
      (List.mapi
         (fun ii env ->
           List.mapi
             (fun si stmt ->
               {
                 Ndp_core.Window.group = (ii * body_len) + si;
                 default_node = ii mod mesh_size;
                 inst = { Ndp_ir.Dependence.stmt_idx = si; stmt; env };
               })
             nest.Ndp_ir.Loop.body)
         (Ndp_ir.Loop.iterations nest))
  in
  (ctx, List.filteri (fun i _ -> i < 256) metas)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let mesh = Ndp_noc.Mesh.create ~cols:6 ~rows:6 in
  let rng = Ndp_prelude.Rng.create 7 in
  let random_edges n =
    List.concat_map
      (fun u -> List.filter_map (fun v -> if u < v then Some { Ndp_graph.Kruskal.u; v; weight = 1 + Ndp_prelude.Rng.int rng 10 } else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let edges36 = random_edges 36 in
  let stmt =
    Ndp_ir.Parser.statement "A[i] = B[i] + C[i] * (D[i] + E[i+1]) + F[i] / G[i]"
  in
  let kernel = Ndp_workloads.Suite.find "cholesky" in
  let bench_mst =
    Test.make ~name:"kruskal-36-complete" (Staged.stage (fun () -> Ndp_graph.Kruskal.mst ~n:36 edges36))
  in
  let bench_route =
    Test.make ~name:"xy-route-corner-to-corner"
      (Staged.stage (fun () -> Ndp_noc.Mesh.xy_route mesh ~src:0 ~dst:35))
  in
  let bench_nested =
    Test.make ~name:"nested-set-build"
      (Staged.stage (fun () -> Ndp_ir.Nested_set.of_expr stmt.Ndp_ir.Stmt.rhs))
  in
  let bench_parse =
    Test.make ~name:"parse-statement"
      (Staged.stage (fun () ->
           Ndp_ir.Parser.statement "X[i] = Y[i] * (Z[i] + W[2*i+1]) - V[i] / U[i]"))
  in
  (* Observability overhead: a disabled-registry bump must be a single
     predictable branch, and a fully observed pipeline run should cost a
     few percent over the unobserved baseline below. *)
  let bench_metrics_disabled =
    let c = Ndp_obs.Metrics.counter Ndp_obs.Metrics.disabled "bench.dead" in
    Test.make ~name:"metrics-incr-x1000-disabled"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             Ndp_obs.Metrics.incr c
           done))
  in
  let bench_metrics_enabled =
    let reg = Ndp_obs.Metrics.create () in
    let c = Ndp_obs.Metrics.counter reg "bench.live" in
    Test.make ~name:"metrics-incr-x1000-enabled"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             Ndp_obs.Metrics.incr c
           done))
  in
  (* Span overhead, same discipline as the metrics pair: a disabled
     enter/exit is one branch and no allocation; the enabled side pays
     the clock reads and log append. [pipeline-spans-enabled] below
     bounds the end-to-end cost of tracing a whole compile+simulate (the
     acceptance bar is <=5% over the untraced baseline). *)
  let bench_spans_disabled =
    Test.make ~name:"span-enter-exit-x1000-disabled"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             let sp = Ndp_obs.Span.enter Ndp_obs.Span.none "dead" in
             Ndp_obs.Span.exit Ndp_obs.Span.none sp
           done))
  in
  let bench_spans_enabled =
    Test.make ~name:"span-enter-exit-x1000-enabled"
      (Staged.stage (fun () ->
           let t = Ndp_obs.Span.create () in
           for _ = 1 to 1000 do
             let sp = Ndp_obs.Span.enter t "live" in
             Ndp_obs.Span.exit t sp
           done))
  in
  (* Dependence analysis on a real instance stream: the bucketed analyze
     against the O(n^2) naive oracle it replaced. *)
  let module Dep = Ndp_ir.Dependence in
  let dep_prog = kernel.Ndp_core.Kernel.program in
  let dep_resolver (r : Ndp_ir.Reference.t) env =
    match Ndp_ir.Subscript.eval_affine env r.Ndp_ir.Reference.subscript with
    | Some i ->
      Some
        (Ndp_ir.Array_decl.address
           (Ndp_ir.Array_decl.find dep_prog.Ndp_ir.Loop.arrays r.Ndp_ir.Reference.array)
           i)
    | None -> None
  in
  let dep_stream =
    let nest = List.hd dep_prog.Ndp_ir.Loop.nests in
    let insts =
      List.concat_map
        (fun env ->
          List.mapi
            (fun stmt_idx stmt -> { Dep.stmt_idx; stmt; env })
            nest.Ndp_ir.Loop.body)
        (Ndp_ir.Loop.iterations nest)
    in
    List.filteri (fun i _ -> i < 384) insts
  in
  let bench_dep_bucketed =
    Test.make ~name:"dependence-analyze-bucketed-384"
      (Staged.stage (fun () -> Dep.analyze dep_resolver dep_stream))
  in
  let bench_dep_banded =
    Test.make ~name:"dependence-analyze-band8-384"
      (Staged.stage (fun () -> Dep.analyze ~band:8 dep_resolver dep_stream))
  in
  (* The unobserved baseline every pipeline overhead row is read against:
     one cholesky compile+simulate under a fixed window of 2, the job
     built once. Each variant below runs the same job with one thing
     switched on. *)
  let fixed2 =
    Ndp_core.Pipeline.Partitioned
      { Ndp_core.Pipeline.partitioned_defaults with
        Ndp_core.Pipeline.window = Ndp_core.Pipeline.Fixed 2 }
  in
  let fixed2_job = Ndp_core.Pipeline.Job.make fixed2 kernel in
  let bench_pipeline =
    Test.make ~name:"compile+simulate-cholesky"
      (Staged.stage (fun () -> Ndp_core.Pipeline.Job.run fixed2_job))
  in
  let bench_pipeline_obs =
    Test.make ~name:"compile+simulate-cholesky-observed"
      (Staged.stage (fun () ->
           let obs = Ndp_obs.Sink.create ~metrics:true ~trace:true () in
           Ndp_core.Pipeline.Job.run ~obs fixed2_job))
  in
  let bench_pipeline_spans_enabled =
    Test.make ~name:"pipeline-spans-enabled"
      (Staged.stage (fun () ->
           let obs =
             { Ndp_obs.Sink.none with Ndp_obs.Sink.spans = Ndp_obs.Span.create () }
           in
           Ndp_core.Pipeline.Job.run ~obs fixed2_job))
  in
  (* Fault-injection overhead: the [?faults] hook adds one option branch
     per link traversal when disabled (the baseline pays it), and a plan
     that touches no link on the hot routes should cost little when
     enabled. *)
  let bench_inject_enabled =
    let mesh = Ndp_sim.Config.mesh Ndp_sim.Config.default in
    let faults =
      Ndp_fault.Plan.make ~mesh ~seed:42 [ Ndp_fault.Plan.Degrade_link (0, 1, 2.0) ]
    in
    let job = Ndp_core.Pipeline.Job.make ~faults fixed2 kernel in
    Test.make ~name:"pipeline-inject-enabled"
      (Staged.stage (fun () -> Ndp_core.Pipeline.Job.run job))
  in
  (* Profiling overhead: the attribution ledger tags every NoC message and
     the timeline samples six counters every 1000 cycles; the enabled run
     should stay within ~10% of the baseline. *)
  let bench_profile_enabled =
    Test.make ~name:"pipeline-profile-enabled"
      (Staged.stage (fun () ->
           let obs =
             Ndp_obs.Sink.create ~metrics:true ~trace:false ~ledger:true
               ~timeline_interval:1000 ()
           in
           Ndp_core.Pipeline.Job.run ~obs fixed2_job))
  in
  (* Fusion pass overhead: the same compile+simulate on the residual-block
     chain workload with producer→consumer fusion on — covers Fusion.plan
     (legality + profitability pricing) plus the store-elided simulation. *)
  let bench_pipeline_fused =
    let dnn = Ndp_workloads.Suite.find "resnet_block" in
    Test.make ~name:"pipeline-fused"
      (Staged.stage (fun () ->
           Ndp_core.Pipeline.Job.run
             (Ndp_core.Pipeline.Job.make
                (Ndp_core.Pipeline.Partitioned
                   { Ndp_core.Pipeline.partitioned_defaults with Ndp_core.Pipeline.fuse = true })
                dnn)))
  in
  (* Window-size preprocessing on a 256-instance sample: the sizer prices
     instances once with the closed-form cost model and compiles only to
     break ties. *)
  let cs_ctx, cs_metas = choose_size_fixture () in
  let bench_choose_analytic =
    Test.make ~name:"choose-size-analytic-256"
      (Staged.stage (fun () -> Ndp_core.Window.choose_size_analytic cs_ctx cs_metas ~max:8))
  in
  (* Layer microbenchmarks for the flat-engine hot paths: a burst of
     [Network.send]s over varied routes, the Machine L1-hit and deep-miss
     load paths, and one [Engine.run] of a representative combine task.
     Each keeps its machine/network alive across samples (per-link
     occupancy and clocks accumulate, as in a real run); only the
     per-operation slope is reported. *)
  let bench_net_send =
    let net = Ndp_sim.Network.create Ndp_sim.Config.default in
    let stats = Ndp_sim.Stats.create () in
    let t = ref 0 in
    Test.make ~name:"network-send-256"
      (Staged.stage (fun () ->
           t := !t + 1000;
           for i = 0 to 255 do
             ignore
               (Ndp_sim.Network.send net ~time:!t ~src:(i mod 36) ~dst:(((i * 7) + 5) mod 36)
                  ~bytes:64 ~stats)
           done))
  in
  let bench_load_hit =
    let machine = Ndp_sim.Machine.create Ndp_sim.Config.default in
    let stats = Ndp_sim.Stats.create () in
    let t = ref 0 in
    ignore (Ndp_sim.Machine.load machine ~node:0 ~va:4096 ~bytes:8 ~time:0 ~stats);
    Test.make ~name:"machine-load-hit"
      (Staged.stage (fun () ->
           incr t;
           ignore (Ndp_sim.Machine.load machine ~node:0 ~va:4096 ~bytes:8 ~time:!t ~stats)))
  in
  let bench_load_miss =
    let machine = Ndp_sim.Machine.create Ndp_sim.Config.default in
    let stats = Ndp_sim.Stats.create () in
    let t = ref 0 in
    let va = ref 0 in
    Test.make ~name:"machine-load-miss"
      (Staged.stage (fun () ->
           t := !t + 100;
           (* 64 MB wrap with a line-sized offset so every access misses
              both the L1 and the home L2 bank. *)
           va := (!va + 4160) land 0x3FFFFFF;
           ignore (Ndp_sim.Machine.load machine ~node:1 ~va:!va ~bytes:8 ~time:!t ~stats)))
  in
  let bench_exec_task =
    let machine = Ndp_sim.Machine.create Ndp_sim.Config.default in
    let engine = Ndp_sim.Engine.create machine in
    let ops = Ndp_ir.Expr.ops stmt.Ndp_ir.Stmt.rhs in
    let id = ref 0 in
    Test.make ~name:"engine-exec-task"
      (Staged.stage (fun () ->
           incr id;
           let base = !id * 64 in
           let task =
             Ndp_sim.Task.make ~id:!id ~group:0 ~node:(!id mod 36) ~ops
               ~operands:
                 [
                   Ndp_sim.Task.Load { va = base; bytes = 8 };
                   Ndp_sim.Task.Load { va = base + 8192; bytes = 8 };
                 ]
               ~store:(base + 16384, 8) ~label:"bench" ()
           in
           Ndp_sim.Engine.run engine [ task ]))
  in
  let tests =
    Test.make_grouped ~name:"ndp"
      [
        bench_mst; bench_route; bench_nested; bench_parse;
        bench_metrics_disabled; bench_metrics_enabled;
        bench_spans_disabled; bench_spans_enabled;
        bench_dep_bucketed; bench_dep_banded; bench_choose_analytic;
        bench_pipeline_fused;
        bench_net_send; bench_load_hit; bench_load_miss; bench_exec_task;
      ]
  in
  (* The baseline and its overhead variants get a longer quota: at ~40 ms
     per run the default 0.5 s quota yields ~12 samples — too few for a
     stable OLS slope on a shared machine — and the claims riding on these
     rows are overhead bounds of a few percent, so they need the tighter
     estimate. *)
  let pipeline_tests =
    Test.make_grouped ~name:"ndp"
      [
        bench_pipeline; bench_pipeline_obs; bench_pipeline_spans_enabled;
        bench_inject_enabled; bench_profile_enabled;
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let estimates = ref [] in
  let run_group cfg tests =
    let raw = Benchmark.all cfg instances tests in
    let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
    let results = Analyze.merge ols instances results in
    Hashtbl.iter
      (fun measure tbl ->
        if measure = Measure.label Instance.monotonic_clock then
          Hashtbl.iter
            (fun test ols_result ->
              match Bechamel.Analyze.OLS.estimates ols_result with
              | Some [ est ] -> estimates := (test, est) :: !estimates
              | _ -> ())
            tbl)
      results
  in
  run_group (Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ()) tests;
  run_group (Benchmark.cfg ~limit:1000 ~quota:(Time.second 4.0) ()) pipeline_tests;
  print_endline "== Micro-benchmarks (ns per run, OLS estimate) ==";
  List.iter
    (fun (test, est) -> Printf.printf "%-40s %12.1f ns\n" test est)
    (List.sort compare !estimates)

(* The declarative subcommand table: name, one-line summary, run function
   over the remaining argv words. Usage is generated from the table. *)
type command = { name : string; summary : string; run : string list -> unit }

let () =
  let common = E.Common.create () in
  let artifacts =
    [
      ("table1", fun () -> E.Tables.table1 common);
      ("table2", fun () -> E.Tables.table2 common);
      ("table3", fun () -> E.Tables.table3 common);
      ("fig13", fun () -> E.Figures.fig13 common);
      ("fig14", fun () -> E.Figures.fig14 common);
      ("fig15", fun () -> E.Figures.fig15 common);
      ("fig16", fun () -> E.Figures.fig16 common);
      ("fig17", fun () -> E.Figures.fig17 common);
      ("fig18", fun () -> E.Figures.fig18 common);
      ("fig19", fun () -> E.Figures.fig19 common);
      ("heatmap", fun () -> E.Figures.link_heatmap common);
      ("attribution", fun () -> E.Figures.attribution common);
      ("degradation", fun () -> E.Figures.degradation common);
      ("fig20", fun () -> E.Figures.fig20 common);
      ("fig21", fun () -> E.Figures.fig21 common);
      ("fig22", fun () -> E.Figures.fig22 common);
      ("fig23", fun () -> E.Figures.fig23 common);
      ("fig24", fun () -> E.Figures.fig24 common);
      ("summary", fun () -> E.Figures.summary common);
    ]
  in
  let run_paper () = List.iter (fun (_, f) -> f ()) artifacts in
  let commands =
    [
      { name = "paper"; summary = "every table and figure (the default)"; run = (fun _ -> run_paper ()) };
      {
        name = "all";
        summary = "tables + figures + ablations + micro-benchmarks";
        run =
          (fun _ ->
            run_paper ();
            E.Ablation.all common;
            micro ());
      };
      { name = "ablation"; summary = "the DESIGN.md ablations"; run = (fun _ -> E.Ablation.all common) };
      { name = "micro"; summary = "Bechamel micro-benchmarks"; run = (fun _ -> micro ()) };
      {
        name = "sweep";
        summary = "compile cholesky once, replay the schedule across cost-model variants";
        run =
          (fun args ->
            let kernel = Ndp_workloads.Suite.find (match args with k :: _ -> k | [] -> "cholesky") in
            let scheme =
              Ndp_core.Pipeline.Partitioned Ndp_core.Pipeline.partitioned_defaults
            in
            let d = Ndp_sim.Config.default in
            let nt = Ndp_core.Pipeline.no_tweaks in
            (* Simulation-side variants only: address-shape parameters
               (mesh, line/page size) must match the capture config. *)
            let variants =
              [
                ("baseline", d, nt);
                ("hop-cycles-8", { d with Ndp_sim.Config.hop_cycles = 8 }, nt);
                ("hop-cycles-32", { d with Ndp_sim.Config.hop_cycles = 32 }, nt);
                ("ddr-cycles-520", { d with Ndp_sim.Config.ddr_cycles = 520 }, nt);
                ("op-cycles-16", { d with Ndp_sim.Config.op_cycles = 16 }, nt);
                ("l2-hit-cycles-36", { d with Ndp_sim.Config.l2_hit_cycles = 36 }, nt);
                ("distance-x0.5", d, { nt with Ndp_core.Pipeline.distance_factor = 0.5 });
                ("compute-/2", d, { nt with Ndp_core.Pipeline.cost_scale = 2.0 });
              ]
            in
            let t0 = Unix.gettimeofday () in
            let r =
              Ndp_core.Pipeline.Job.run (Ndp_core.Pipeline.Job.make ~capture:true scheme kernel)
            in
            let compile_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            let t1 = Unix.gettimeofday () in
            let replays =
              Ndp_prelude.Pool.with_pool (fun pool ->
                  Ndp_prelude.Pool.parallel_map pool
                    (fun (name, config, tweaks) ->
                      (name, Ndp_core.Pipeline.replay ~config ~tweaks kernel r.Ndp_core.Pipeline.emitted))
                    variants)
            in
            let replay_ms = (Unix.gettimeofday () -. t1) *. 1000.0 in
            Printf.printf "== %s / %s: one compile, %d replays ==\n" kernel.Ndp_core.Kernel.name
              r.Ndp_core.Pipeline.scheme_name (List.length variants);
            Printf.printf "%-18s %12s %10s %10s %12s\n" "variant" "exec-cycles" "vs-base" "hops"
              "load-wait";
            let base_exec = r.Ndp_core.Pipeline.exec_time in
            List.iter
              (fun (name, (rp : Ndp_core.Pipeline.replayed)) ->
                Printf.printf "%-18s %12d %9.2fx %10d %12d\n" name rp.Ndp_core.Pipeline.rp_exec_time
                  (float_of_int rp.Ndp_core.Pipeline.rp_exec_time /. float_of_int base_exec)
                  (Ndp_sim.Stats.hops rp.Ndp_core.Pipeline.rp_stats)
                  (Ndp_sim.Stats.load_wait rp.Ndp_core.Pipeline.rp_stats))
              replays;
            Printf.printf
              "compile+capture %.1f ms, %d replays %.1f ms (%.1f ms/variant vs %.1f ms for a full \
               recompile each)\n"
              compile_ms (List.length variants) replay_ms
              (replay_ms /. float_of_int (List.length variants))
              compile_ms);
      };
      {
        name = "equiv";
        summary = "print the run-digest table consumed by test_equiv.ml";
        run =
          (fun _ ->
            List.iter
              (fun (name, scheme, mode) ->
                let kernel = Ndp_workloads.Suite.find name in
                let d = E.Equiv.run ~mode ~scheme kernel in
                Printf.printf "    (%S, %S);\n%!"
                  (E.Equiv.combo_key name scheme mode) d)
              (E.Equiv.all_combos ()));
      };
    ]
    @ List.map
        (fun (n, f) -> { name = n; summary = "the " ^ n ^ " artifact only"; run = (fun _ -> f ()) })
        artifacts
  in
  let usage oc =
    Printf.fprintf oc "usage: main.exe [COMMAND]\n\ncommands:\n";
    List.iter (fun c -> Printf.fprintf oc "  %-10s %s\n" c.name c.summary) commands
  in
  match Array.to_list Sys.argv with
  | [] | [ _ ] -> run_paper ()
  | _ :: ("help" | "--help" | "-h") :: _ -> usage stdout
  | _ :: name :: rest -> (
    match List.find_opt (fun c -> c.name = name) commands with
    | Some c -> c.run rest
    | None ->
      Printf.eprintf "unknown command %s\n\n" name;
      usage stderr;
      exit 1)
