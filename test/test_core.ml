open Ndp_core
module Task = Ndp_sim.Task

(* Fixture: place named arrays at chosen mesh nodes by picking virtual
   addresses whose cache line index equals the node id (SNUCA line
   interleave over the 6x6 mesh under the quadrant mode). Elements are
   8 bytes; predictor state is cold, so locations resolve to MC nodes
   unless we warm the predictor first — [warm] marks lines recently seen
   so GetNode answers with the L2 home. *)
let fixture ?(options = None) placements =
  let config = Ndp_sim.Config.default in
  let machine = Ndp_sim.Machine.create config in
  let arrays =
    Ndp_ir.Array_decl.layout (List.map (fun (name, _) -> (name, 64, 8)) placements)
  in
  let va_of name = 64 * List.assoc name placements in
  let resolve (r : Ndp_ir.Reference.t) env =
    match Ndp_ir.Subscript.eval_affine env r.Ndp_ir.Reference.subscript with
    | Some _ -> Some (va_of r.Ndp_ir.Reference.array)
    | None -> None
  in
  let opts =
    match options with Some o -> o | None -> Context.default_options config
  in
  let ctx =
    Context.create ~machine ~compiler_resolve:resolve ~runtime_resolve:resolve ~arrays
      ~options:opts ()
  in
  (* Warm the predictor so every placement is predicted L2-resident and
     GetNode returns the home bank, as in the paper's figures. *)
  List.iter
    (fun (name, _) ->
      Ndp_mem.Miss_predictor.note_access ctx.Context.predictor
        (Ndp_sim.Machine.compiler_translate machine (va_of name)))
    placements;
  (ctx, va_of)

let env0 = Ndp_ir.Env.of_list [ ("i", 0) ]

(* The Figure 3/9 scenario: A with four inputs on a chain of adjacent
   nodes. Default execution visits 10 links; the MST needs only 4. *)
let figure9_placements = [ ("a", 7); ("b", 8); ("e", 9); ("c", 10); ("d", 16) ]

(* A branching variant: two pairs of co-located operands on either side of
   the store node, giving two subcomputations that run in parallel
   (Figure 6). *)
let branching_placements = [ ("a", 7); ("b", 6); ("e", 6); ("c", 8); ("d", 8) ]

let figure9_stmt = Ndp_ir.Parser.statement "a[i] = b[i] + c[i] + d[i] + e[i]"

let splitter_figure9 () =
  let ctx, _ = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 figure9_stmt env0 in
  Alcotest.(check int) "spanning tree over 5 nodes" 4 (List.length split.Splitter.edges);
  Alcotest.(check bool) "tree is spanning" true
    (let nodes = split.Splitter.nodes in
     List.length nodes = 5 && List.mem 7 nodes);
  Alcotest.(check int) "minimum movement 4" 4 split.Splitter.est_movement;
  let default = Splitter.default_movement ctx ~store_node:7 figure9_stmt env0 in
  Alcotest.(check int) "default movement 10" 10 default

let splitter_dedupes_same_node () =
  (* b and c share a node: one vertex, not two (Algorithm 1 line 12). *)
  let ctx, _ = fixture [ ("a", 7); ("b", 9); ("c", 9) ] in
  let split =
    Splitter.split ctx ~store_node:7 (Ndp_ir.Parser.statement "a[i] = b[i] + c[i]") env0
  in
  Alcotest.(check (list int)) "two vertices" [ 7; 9 ] (List.sort compare split.Splitter.nodes);
  Alcotest.(check int) "one edge" 1 (List.length split.Splitter.edges)

let splitter_single_node () =
  let ctx, _ = fixture [ ("a", 7); ("b", 7); ("c", 7) ] in
  let split =
    Splitter.split ctx ~store_node:7 (Ndp_ir.Parser.statement "a[i] = b[i] + c[i]") env0
  in
  Alcotest.(check int) "no edges" 0 (List.length split.Splitter.edges);
  Alcotest.(check int) "zero movement" 0 split.Splitter.est_movement

let splitter_levels () =
  (* a = b * (c + d): the (c, d) group forms its own sub-MST first. *)
  let ctx, _ = fixture [ ("a", 0); ("b", 1); ("c", 34); ("d", 35) ] in
  let split =
    Splitter.split ctx ~store_node:0 (Ndp_ir.Parser.statement "a[i] = b[i] * (c[i] + d[i])") env0
  in
  (* c-d are adjacent (distance 1); that edge must be in the tree. *)
  Alcotest.(check bool) "group edge chosen" true
    (List.exists
       (fun (e : Ndp_graph.Kruskal.edge) ->
         (e.Ndp_graph.Kruskal.u = 34 && e.Ndp_graph.Kruskal.v = 35)
         || (e.Ndp_graph.Kruskal.u = 35 && e.Ndp_graph.Kruskal.v = 34))
       split.Splitter.edges)

let splitter_never_cyclic () =
  (* Shared operands across parenthesized groups must not create multi-
     edges or cycles (the pooled-MSTedges property). *)
  let ctx, _ = fixture [ ("a", 0); ("b", 3); ("c", 21); ("e", 23); ("f", 21) ] in
  let stmt = Ndp_ir.Parser.statement "a[i] = (b[i] + c[i]) * (e[i] + f[i]) + c[i] * f[i]" in
  let split = Splitter.split ctx ~store_node:0 stmt env0 in
  Alcotest.(check int) "edges = vertices - 1" (List.length split.Splitter.nodes - 1)
    (List.length split.Splitter.edges)

let unsplit_collapses () =
  let ctx, va_of = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 figure9_stmt env0 in
  let u = Splitter.unsplit split in
  Alcotest.(check int) "no edges" 0 (List.length u.Splitter.edges);
  Alcotest.(check (list int)) "single node" [ 7 ] u.Splitter.nodes;
  ignore va_of

let schedule_invariants () =
  let ctx, va_of = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 figure9_stmt env0 in
  let sched = Schedule.schedule ctx ~group:0 split figure9_stmt env0 in
  (* Producers precede consumers in emission order. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (t : Task.t) ->
      List.iter
        (function
          | Task.Result { producer; bytes = _ } ->
            Alcotest.(check bool) "producer already emitted" true (Hashtbl.mem seen producer)
          | Task.Load _ -> ())
        t.Task.operands;
      Hashtbl.replace seen t.Task.id ())
    sched.Schedule.tasks;
  (* Exactly one task stores, and it stores A. *)
  let stores = List.filter_map (fun (t : Task.t) -> t.Task.store) sched.Schedule.tasks in
  Alcotest.(check (list (pair int int))) "stores A" [ (va_of "a", 8) ] stores;

  (* All four inputs are loaded exactly once across the task set. *)
  let loads =
    List.concat_map
      (fun (t : Task.t) ->
        List.filter_map
          (function Task.Load { va; bytes = _ } -> Some va | Task.Result _ -> None)
          t.Task.operands)
      sched.Schedule.tasks
  in
  Alcotest.(check (list int)) "each input loaded once"
    (List.sort compare [ va_of "b"; va_of "c"; va_of "d"; va_of "e" ])
    (List.sort compare loads)

let schedule_parallel_branches () =
  let ctx, _ = fixture branching_placements in
  let split = Splitter.split ctx ~store_node:7 figure9_stmt env0 in
  let sched = Schedule.schedule ctx ~group:0 split figure9_stmt env0 in
  Alcotest.(check bool) "two parallel subcomputations" true (sched.Schedule.parallelism >= 2);
  (* The root joins two children and synchronizes on both (Figure 6). *)
  Alcotest.(check int) "two join arcs" 2 (List.length sched.Schedule.join_arcs)

let schedule_ops_conserved () =
  let ctx, _ = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 figure9_stmt env0 in
  let sched = Schedule.schedule ctx ~group:0 split figure9_stmt env0 in
  let total_cost =
    List.fold_left (fun acc (t : Task.t) -> acc + t.Task.cost) 0 sched.Schedule.tasks
  in
  Alcotest.(check int) "3 additions in total" 3 total_cost

let location_reuse () =
  (* Figure 11: C already fetched into n_D's L1 by statement 1 makes n_D
     C's location for statement 2. *)
  let ctx, va_of = fixture [ ("x", 3); ("y", 4); ("c", 10); ("d", 16) ] in
  Context.note_cached ctx ~line:(va_of "c" / 64) ~node:16;
  let loc = Location.locate ctx ~store_node:3 (Ndp_ir.Reference.make "c" (Ndp_ir.Subscript.var "i")) env0 in
  Alcotest.(check int) "located at n_D" 16 loc.Location.node;
  Alcotest.(check bool) "via L1" true loc.Location.in_l1

let location_reuse_expires () =
  let ctx, va_of = fixture [ ("x", 3); ("c", 10) ] in
  Context.note_cached ctx ~line:(va_of "c" / 64) ~node:16;
  for _ = 1 to Context.reuse_horizon + 1 do
    Context.advance_statement ctx
  done;
  let loc = Location.locate ctx ~store_node:3 (Ndp_ir.Reference.make "c" (Ndp_ir.Subscript.var "i")) env0 in
  Alcotest.(check bool) "stale placement ignored" false loc.Location.in_l1

let location_unanalyzable_pins () =
  let ctx, _ = fixture [ ("x", 3) ] in
  let r = Ndp_ir.Reference.make "x" (Ndp_ir.Subscript.indirect "y" (Ndp_ir.Subscript.var "i")) in
  let loc = Location.locate ctx ~store_node:31 r env0 in
  Alcotest.(check int) "pinned to store node" 31 loc.Location.node;
  Alcotest.(check (option int)) "no address" None loc.Location.va

let sync_min_removes_chain () =
  let arcs = [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check (list (pair int int))) "redundant removed" [ (0, 1); (1, 2) ]
    (List.sort compare (Sync_min.minimize ~enabled:true arcs));
  Alcotest.(check int) "disabled keeps all" 3
    (List.length (Sync_min.minimize ~enabled:false arcs))

let sync_per_consumer () =
  let t = Sync_min.syncs_per_consumer [ (0, 5); (1, 5); (2, 9) ] in
  Alcotest.(check (option int)) "two into 5" (Some 2) (Hashtbl.find_opt t 5);
  Alcotest.(check (option int)) "one into 9" (Some 1) (Hashtbl.find_opt t 9)

let window_chunking () =
  Alcotest.(check (list (list int))) "chunks of 2" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Window.chunk [ 1; 2; 3; 4; 5 ] 2);
  Alcotest.(check (list (list int))) "oversize window" [ [ 1; 2 ] ] (Window.chunk [ 1; 2 ] 9)

let meta_of ctx stmt i node =
  ignore ctx;
  {
    Window.group = i;
    default_node = node;
    inst = { Ndp_ir.Dependence.stmt_idx = i; stmt; env = env0 };
  }

let window_compile_basics () =
  let ctx, _ = fixture (figure9_placements @ [ ("x", 20); ("y", 21) ]) in
  let s2 = Ndp_ir.Parser.statement "x[i] = y[i] + c[i]" in
  let compiled = Window.compile ctx [ meta_of ctx figure9_stmt 0 7; meta_of ctx s2 1 20 ] in
  Alcotest.(check int) "two reports" 2 (List.length compiled.Window.reports);
  (* Emission is level-major: levels never decrease. *)
  let levels = List.map snd compiled.Window.tasks in
  Alcotest.(check (list int)) "level-sorted" (List.sort compare levels) levels;
  Alcotest.(check bool) "predictions recorded" true (compiled.Window.predictions <> [])

let window_choose_size_bounds () =
  let ctx, _ = fixture figure9_placements in
  let metas = List.init 40 (fun i -> meta_of ctx figure9_stmt i (i mod 36)) in
  let w = Window.choose_size_analytic ctx metas ~max:8 in
  Alcotest.(check bool) "within 1..8" true (w >= 1 && w <= 8)

let window_movement_estimate_reuse () =
  (* Two statements sharing c: windows of 2 see the reuse, w=1 cannot. *)
  let ctx, _ = fixture (figure9_placements @ [ ("x", 20); ("y", 21) ]) in
  let s2 = Ndp_ir.Parser.statement "x[i] = y[i] + c[i]" in
  let metas =
    List.concat
      (List.init 10 (fun i ->
           [ meta_of ctx figure9_stmt (2 * i) 7; meta_of ctx s2 ((2 * i) + 1) 20 ]))
  in
  let m1 = Oracles.movement_estimate ctx metas ~window:1 in
  let m2 = Oracles.movement_estimate ctx metas ~window:2 in
  Alcotest.(check bool) "window of 2 moves no more data" true (m2 <= m1)

let window_analytic_matches_sampled () =
  (* The sizer must agree with the sampled oracle — every candidate
     window compiled from scratch — on every nest of the whole suite: the
     property that lets the closed-form model replace sampled
     compilation. *)
  List.iter
    (fun name ->
      let kernel = Ndp_workloads.Suite.find name in
      let scheme = Pipeline.Partitioned Pipeline.partitioned_defaults in
      let _ =
        List.fold_left
          (fun g (nest : Ndp_ir.Loop.nest) ->
            let sampled_ctx = Pipeline.static_context scheme kernel in
            let analytic_ctx = Pipeline.static_context scheme kernel in
            let metas, g' = Pipeline.nest_stream sampled_ctx nest ~first_group:g in
            let ws = Oracles.choose_size_reanalyze sampled_ctx metas ~max:8 in
            let wa = Window.choose_size_analytic analytic_ctx metas ~max:8 in
            Alcotest.(check int)
              (Printf.sprintf "%s/%s analytic = sampled" name nest.Ndp_ir.Loop.nest_name)
              ws wa;
            g')
          0 kernel.Kernel.program.Ndp_ir.Loop.nests
      in
      ())
    Ndp_workloads.Suite.names

let window_non_affine_short_circuit () =
  (* A nest whose every reference is indirect gives the static model
     nothing to work with: the sizer falls back to w=1. *)
  let ctx, _ = fixture [ ("x", 3); ("y", 4); ("w", 5) ] in
  let stmt = Ndp_ir.Parser.statement "x[y[i]] = w[y[i]]" in
  let metas = List.init 16 (fun i -> meta_of ctx stmt i (i mod 36)) in
  Alcotest.(check bool) "all non-affine" true (Window.all_non_affine metas);
  Alcotest.(check int) "sizer short-circuits" 1 (Window.choose_size_analytic ctx metas ~max:8)

let baseline_assignment () =
  let arrays = Ndp_ir.Array_decl.layout [ ("a", 4096, 8); ("b", 4096, 8) ] in
  let resolve (r : Ndp_ir.Reference.t) env =
    Option.map
      (Ndp_ir.Array_decl.address (Ndp_ir.Array_decl.find arrays r.Ndp_ir.Reference.array))
      (Ndp_ir.Subscript.eval_affine env r.Ndp_ir.Reference.subscript)
  in
  let machine = Ndp_sim.Machine.create Ndp_sim.Config.default in
  let ctx =
    Context.create ~machine ~compiler_resolve:resolve ~runtime_resolve:resolve ~arrays
      ~options:(Context.default_options Ndp_sim.Config.default) ()
  in
  let nest =
    Ndp_ir.Loop.nest ~sweeps:2 "n"
      [ { Ndp_ir.Loop.var = "i"; lo = 0; hi = 72 } ]
      [ Ndp_ir.Parser.statement "a[i] = b[i]" ]
  in
  let iters = Ndp_ir.Loop.iterations nest in
  let assignment = Baseline.assign_iterations ctx nest iters in
  Alcotest.(check int) "one node per iteration" 144 (Array.length assignment);
  let used = List.sort_uniq compare (Array.to_list assignment) in
  Alcotest.(check int) "all 36 nodes used" 36 (List.length used);
  (* Sweeps repeat the same static schedule. *)
  Alcotest.(check int) "sweep repeats" assignment.(0) assignment.(72)

let codegen_renders () =
  let ctx, _ = fixture figure9_placements in
  let text = Codegen.emit_statement ctx ~store_node:7 figure9_stmt env0 in
  Alcotest.(check bool) "mentions nodes" true (Astring.String.is_infix ~affix:"node" text);
  Alcotest.(check bool) "stores" true (Astring.String.is_infix ~affix:"store" text)

let qcheck_splitter_beats_default =
  (* The MST movement never exceeds the default star topology. *)
  QCheck.Test.make ~name:"MST movement <= default star movement" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 4) (0 -- 35))
    (fun nodes ->
      QCheck.assume (List.length (List.sort_uniq compare nodes) = 4);
      match nodes with
      | [ na; nb; nc; nd ] ->
        let ctx, _ = fixture [ ("a", na); ("b", nb); ("c", nc); ("d", nd) ] in
        let stmt = Ndp_ir.Parser.statement "a[i] = b[i] + c[i] + d[i]" in
        let split = Splitter.split ctx ~store_node:na stmt env0 in
        split.Splitter.est_movement <= Splitter.default_movement ctx ~store_node:na stmt env0
      | _ -> true)

let qcheck_schedule_emits_all_inputs =
  QCheck.Test.make ~name:"every resolvable input becomes exactly one load" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 5) (0 -- 35))
    (fun nodes ->
      QCheck.assume (List.length (List.sort_uniq compare nodes) = 5);
      match nodes with
      | [ na; nb; nc; nd; ne ] ->
        let ctx, _ = fixture [ ("a", na); ("b", nb); ("c", nc); ("d", nd); ("e", ne) ] in
        let stmt = Ndp_ir.Parser.statement "a[i] = b[i] * c[i] + d[i] / e[i]" in
        let split = Splitter.split ctx ~store_node:na stmt env0 in
        let sched = Schedule.schedule ctx ~group:0 split stmt env0 in
        let loads =
          List.concat_map
            (fun (t : Task.t) ->
              List.filter_map
                (function Task.Load { va; bytes = _ } -> Some va | Task.Result _ -> None)
                t.Task.operands)
            sched.Schedule.tasks
        in
        List.length loads = 4 && List.length (List.sort_uniq compare loads) = 4
      | _ -> true)

let graphviz_outputs () =
  let ctx, _ = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 figure9_stmt env0 in
  let mst_dot = Graphviz.statement_mst split in
  Alcotest.(check bool) "mst dot well-formed" true
    (Astring.String.is_prefix ~affix:"digraph" mst_dot
    && Astring.String.is_infix ~affix:"n7" mst_dot);
  let compiled = Window.compile ctx [ meta_of ctx figure9_stmt 0 7 ] in
  let task_dot = Graphviz.task_graph compiled.Window.tasks in
  Alcotest.(check bool) "task dot well-formed" true
    (Astring.String.is_prefix ~affix:"digraph" task_dot
    && Astring.String.is_infix ~affix:"store" task_dot)

let tests =
  [
    ( "core",
      [
        Alcotest.test_case "splitter figure 9" `Quick splitter_figure9;
        Alcotest.test_case "splitter dedupes" `Quick splitter_dedupes_same_node;
        Alcotest.test_case "splitter single node" `Quick splitter_single_node;
        Alcotest.test_case "splitter levels" `Quick splitter_levels;
        Alcotest.test_case "splitter acyclic" `Quick splitter_never_cyclic;
        Alcotest.test_case "unsplit collapses" `Quick unsplit_collapses;
        Alcotest.test_case "schedule invariants" `Quick schedule_invariants;
        Alcotest.test_case "schedule parallel branches" `Quick schedule_parallel_branches;
        Alcotest.test_case "schedule ops conserved" `Quick schedule_ops_conserved;
        Alcotest.test_case "location reuse (fig 11)" `Quick location_reuse;
        Alcotest.test_case "location reuse expires" `Quick location_reuse_expires;
        Alcotest.test_case "location unanalyzable pins" `Quick location_unanalyzable_pins;
        Alcotest.test_case "sync minimization chain" `Quick sync_min_removes_chain;
        Alcotest.test_case "syncs per consumer" `Quick sync_per_consumer;
        Alcotest.test_case "window chunking" `Quick window_chunking;
        Alcotest.test_case "window compile basics" `Quick window_compile_basics;
        Alcotest.test_case "window choose size bounds" `Quick window_choose_size_bounds;
        Alcotest.test_case "window reuse estimate" `Quick window_movement_estimate_reuse;
        Alcotest.test_case "window analytic = sampled (suite)" `Slow window_analytic_matches_sampled;
        Alcotest.test_case "window non-affine short-circuit" `Quick window_non_affine_short_circuit;
        Alcotest.test_case "baseline assignment" `Quick baseline_assignment;
        Alcotest.test_case "codegen renders" `Quick codegen_renders;
        Alcotest.test_case "graphviz outputs" `Quick graphviz_outputs;
        QCheck_alcotest.to_alcotest qcheck_splitter_beats_default;
        QCheck_alcotest.to_alcotest qcheck_schedule_emits_all_inputs;
      ] );
  ]
