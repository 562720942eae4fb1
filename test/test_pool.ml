module Pool = Ndp_prelude.Pool
module P = Ndp_core.Pipeline

let ordering () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let ys = Pool.parallel_map pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "squares in order" (List.map (fun x -> x * x) xs) ys)

let empty_and_singleton () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.parallel_map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.parallel_map pool succ [ 7 ]))

exception Boom of int

let exception_propagation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let ran = Array.make 8 false in
      let attempt () =
        Pool.parallel_map pool
          (fun i ->
            ran.(i) <- true;
            if i = 2 || i = 5 then raise (Boom i);
            i)
          (List.init 8 Fun.id)
      in
      (match attempt () with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest-index failure wins" 2 i);
      Alcotest.(check bool) "all tasks still ran" true (Array.for_all Fun.id ran);
      (* The pool survives a failing call. *)
      Alcotest.(check (list int)) "pool usable afterwards" [ 1; 2; 3 ]
        (Pool.parallel_map pool succ [ 0; 1; 2 ]))

let nested_use () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let ys =
        Pool.parallel_map pool
          (fun x -> List.fold_left ( + ) 0 (Pool.parallel_map pool (fun y -> x * y) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested maps" [ 6; 12; 18; 24 ] ys)

let size_one_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size clamped" 1 (Pool.size pool);
      Alcotest.(check (list int)) "inline map" [ 2; 3 ] (Pool.parallel_map pool succ [ 1; 2 ]));
  Pool.with_pool ~jobs:(-3) (fun pool -> Alcotest.(check int) "negative clamped" 1 (Pool.size pool))

let shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 () in
  Alcotest.(check (list int)) "before shutdown" [ 1; 4; 9 ]
    (Pool.parallel_map pool (fun x -> x * x) [ 1; 2; 3 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (list int)) "inline after shutdown" [ 1; 4; 9 ]
    (Pool.parallel_map pool (fun x -> x * x) [ 1; 2; 3 ])

let run_serially_forces_serial () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let r =
        Pool.run_serially (fun () -> Pool.parallel_map pool (fun x -> x + 10) [ 1; 2; 3 ])
      in
      Alcotest.(check (list int)) "serial path result" [ 11; 12; 13 ] r)

(* The tentpole guarantee: fanning the whole evaluation sweep across
   domains changes nothing about the numbers. Every (workload, scheme)
   cell is run once on a parallel pool and once with the calling domain
   pinned to the serial path, and the metrics the paper reports must be
   identical field for field. *)
let suite_determinism () =
  let kernels = List.map Ndp_workloads.Suite.find Ndp_workloads.Suite.names in
  let schemes = [ P.Default; P.Partitioned P.partitioned_defaults ] in
  let cells = List.concat_map (fun k -> List.map (fun s -> (k, s)) schemes) kernels in
  Pool.with_pool ~jobs:4 (fun pool ->
      let run_cell (k, s) = P.run ~pool s k in
      let par = Pool.parallel_map pool run_cell cells in
      let ser = Pool.run_serially (fun () -> List.map run_cell cells) in
      List.iter2
        (fun (p : P.result) (s : P.result) ->
          let label field = Printf.sprintf "%s/%s %s" p.P.kernel_name p.P.scheme_name field in
          Alcotest.(check int) (label "exec_time") s.P.exec_time p.P.exec_time;
          Alcotest.(check int) (label "est_movement") s.P.est_movement_total p.P.est_movement_total;
          Alcotest.(check int) (label "sync_arcs") s.P.sync_arcs p.P.sync_arcs;
          Alcotest.(check int) (label "tasks") s.P.tasks_emitted p.P.tasks_emitted;
          Alcotest.(check int) (label "hops") (Ndp_sim.Stats.hops s.P.stats)
            (Ndp_sim.Stats.hops p.P.stats);
          Alcotest.(check int) (label "messages") (Ndp_sim.Stats.messages s.P.stats)
            (Ndp_sim.Stats.messages p.P.stats);
          Alcotest.(check int) (label "l1_hits") (Ndp_sim.Stats.l1_hits s.P.stats)
            (Ndp_sim.Stats.l1_hits p.P.stats);
          Alcotest.(check int) (label "l1_misses") (Ndp_sim.Stats.l1_misses s.P.stats)
            (Ndp_sim.Stats.l1_misses p.P.stats);
          Alcotest.(check int) (label "finish_time") (Ndp_sim.Stats.finish_time s.P.stats)
            (Ndp_sim.Stats.finish_time p.P.stats);
          Alcotest.(check (list (pair string int)))
            (label "windows") s.P.windows_chosen p.P.windows_chosen)
        par ser)

(* The window sizer must agree with the reanalyze-per-candidate oracle,
   serially and with its tie-break re-scoring fanned over a pool. *)
let choose_size_matches_oracle () =
  let module W = Ndp_core.Window in
  List.iter
    (fun name ->
      let kernel = Ndp_workloads.Suite.find name in
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
      let mesh_size = Ndp_noc.Mesh.size (Ndp_sim.Machine.mesh machine) in
      List.iter
        (fun nest ->
          let body_len = List.length nest.Ndp_ir.Loop.body in
          let metas =
            List.concat
              (List.mapi
                 (fun ii env ->
                   List.mapi
                     (fun si stmt ->
                       {
                         W.group = (ii * body_len) + si;
                         default_node = ii mod mesh_size;
                         inst = { Ndp_ir.Dependence.stmt_idx = si; stmt; env };
                       })
                     nest.Ndp_ir.Loop.body)
                 (Ndp_ir.Loop.iterations nest))
          in
          let oracle = Oracles.choose_size_reanalyze ctx metas ~max:8 in
          List.iter
            (fun jobs ->
              Pool.with_pool ~jobs (fun pool ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s: sizer matches oracle at --jobs %d" name jobs)
                    oracle
                    (W.choose_size_analytic ~pool ctx metas ~max:8)))
            [ 1; 4 ])
        kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests)
    [ "water"; "cholesky" ]

let tests =
  [
    ( "pool",
      [
        Alcotest.test_case "ordering" `Quick ordering;
        Alcotest.test_case "empty and singleton" `Quick empty_and_singleton;
        Alcotest.test_case "exception propagation" `Quick exception_propagation;
        Alcotest.test_case "nested use" `Quick nested_use;
        Alcotest.test_case "pool size 1" `Quick size_one_inline;
        Alcotest.test_case "shutdown idempotent" `Quick shutdown_idempotent;
        Alcotest.test_case "run_serially" `Quick run_serially_forces_serial;
        Alcotest.test_case "suite determinism" `Slow suite_determinism;
        Alcotest.test_case "choose_size matches oracle" `Slow choose_size_matches_oracle;
      ] );
  ]
