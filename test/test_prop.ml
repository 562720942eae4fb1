(* Property-based tests over randomized inputs: a hand-rolled, seeded
   generator plus a greedy shrinker (no qcheck runner, so failures report
   the exact seed and a minimized counterexample in the repo's own
   vocabulary).

   Properties:
   - parser round-trip: printing any precedence-respecting statement tree
     and reparsing it yields the same tree;
   - a statement's shape fields (inputs, ops, nested set) equal their
     derivation from its right-hand side, and the derivations equal
     their append-based definitions;
   - the bucketed [Dependence.analyze] equals the O(n^2) naive oracle on
     random instance streams (including indirect may-dependences), and the
     banded analysis equals the oracle filtered to the band;
   - every schedule the partitioned pipeline emits for a random in-bounds
     kernel passes the [Ndp_analysis.Validate] race detector;
   - linking [ndp_fault] but injecting an empty plan leaves a run
     result-identical to one with no plan at all;
   - [Rooted_tree] agrees with the hashtable oracle on random spanning
     trees, cyclic edge sets and edge sets that miss the root. *)

module Rng = Ndp_prelude.Rng
module Sub = Ndp_ir.Subscript
module Ref = Ndp_ir.Reference
module Expr = Ndp_ir.Expr
module Op = Ndp_ir.Op
module Stmt = Ndp_ir.Stmt
module Parser = Ndp_ir.Parser
module Dep = Ndp_ir.Dependence
module Spec = Ndp_workloads.Spec
module Pipeline = Ndp_core.Pipeline
module Plan = Ndp_fault.Plan

(* -------------------------------------------------------------------- *)
(* Harness.                                                              *)

type 'a arbitrary = {
  gen : Rng.t -> 'a;
  shrink : 'a -> 'a list; (** structurally smaller candidates, best first *)
  print : 'a -> string;
}

(* Each case gets its own deterministic seed so a failure names the one
   stream that reproduces it; shrinking keeps the first still-failing
   candidate until none of them fail (greedy descent, bounded fuel). *)
let forall ?(count = 100) ~name arb prop =
  for case = 0 to count - 1 do
    let seed = 0x5eed + (case * 0x9e3779b9) in
    let x = arb.gen (Rng.create seed) in
    match prop x with
    | Ok () -> ()
    | Error first ->
      let rec minimize x msg fuel =
        if fuel = 0 then (x, msg)
        else
          let failing =
            List.find_map
              (fun cand ->
                match prop cand with Error m -> Some (cand, m) | Ok () -> None)
              (arb.shrink x)
          in
          match failing with
          | Some (cand, m) -> minimize cand m (fuel - 1)
          | None -> (x, msg)
      in
      let min_x, min_msg = minimize x first 500 in
      Alcotest.failf "%s: case %d (seed %d): %s\n  minimal counterexample: %s" name case seed
        min_msg (arb.print min_x)
  done

(* -------------------------------------------------------------------- *)
(* Statement generator.                                                  *)

let array_names = [| "A"; "B"; "C"; "D"; "E" |]

(* Positive coefficients and a non-negative constant: the printer joins
   affine terms with '+', and the subscript grammar has no unary minus. *)
let gen_affine rng =
  let vs =
    match Rng.int rng 3 with
    | 0 -> []
    | 1 -> [ (if Rng.bool rng then "i" else "j") ]
    | _ -> [ "i"; "j" ]
  in
  let coeffs = List.map (fun v -> (v, 1 + Rng.int rng 3)) vs in
  Sub.affine coeffs (Rng.int rng 5)

let rec gen_subscript rng depth =
  if depth > 0 && Rng.chance rng 0.3 then Sub.indirect "Y" (gen_subscript rng (depth - 1))
  else gen_affine rng

let gen_ref rng = Ref.make (Rng.pick rng array_names) (gen_subscript rng 1)

(* Precedence-respecting trees only: [Binop (op, l, r)] round-trips
   through the naive (paren-free) printer exactly when the top operator of
   [l] binds at least as tightly as [op] and the top operator of [r]
   strictly tighter — the same left-associative climb the parser does.
   [min_prio] is that constraint pushed down during generation. *)
let rec gen_expr rng depth min_prio =
  let leaf () =
    if Rng.bool rng then Expr.Const (float_of_int (Rng.int rng 10))
    else Expr.Ref (gen_ref rng)
  in
  if depth = 0 then leaf ()
  else
    match Rng.int rng 4 with
    | 0 -> leaf ()
    | 1 -> Expr.Group (gen_expr rng (depth - 1) 0)
    | _ -> (
      let candidates =
        Array.of_list (List.filter (fun op -> Op.priority op >= min_prio) Op.all)
      in
      match Array.length candidates with
      | 0 -> leaf ()
      | _ ->
        let op = Rng.pick rng candidates in
        let l = gen_expr rng (depth - 1) (Op.priority op) in
        let r = gen_expr rng (depth - 1) (Op.priority op + 1) in
        Expr.Binop (op, l, r))

let gen_stmt rng = Stmt.make (gen_ref rng) (gen_expr rng 3 0)

(* Shrinks must preserve the precedence invariant, or the shrinker walks
   toward trees that fail the round-trip by construction rather than by
   bug. Replacing a binop with either child is safe (children satisfy a
   constraint at least as strict); unwrapping a [Group] in an operand
   position is not, so groups only shrink their contents. *)
let rec shrink_expr = function
  | Expr.Const c -> if c <> 0. then [ Expr.Const 0. ] else []
  | Expr.Ref _ -> [ Expr.Const 0. ]
  | Expr.Group e -> List.map (fun e' -> Expr.Group e') (shrink_expr e)
  | Expr.Binop (op, a, b) ->
    [ a; b ]
    @ List.map (fun a' -> Expr.Binop (op, a', b)) (shrink_expr a)
    @ List.map (fun b' -> Expr.Binop (op, a, b')) (shrink_expr b)

let shrink_subscript = function
  | Sub.Indirect { inner; _ } -> [ inner ]
  | Sub.Affine { coeffs; const } ->
    (if const <> 0 then [ Sub.affine coeffs 0 ] else [])
    @ List.mapi (fun i _ -> Sub.affine (List.filteri (fun j _ -> j <> i) coeffs) const) coeffs

let shrink_stmt (s : Stmt.t) =
  List.map (fun rhs -> Stmt.make s.Stmt.lhs rhs) (shrink_expr s.Stmt.rhs)
  @ List.map
      (fun sub -> Stmt.make (Ref.make s.Stmt.lhs.Ref.array sub) s.Stmt.rhs)
      (shrink_subscript s.Stmt.lhs.Ref.subscript)

let arb_stmt = { gen = gen_stmt; shrink = shrink_stmt; print = Stmt.to_string }

let parser_round_trip () =
  forall ~count:400 ~name:"print/parse round-trip" arb_stmt (fun t ->
      let src = Stmt.to_string t in
      match Parser.statement src with
      | exception Parser.Parse_error msg ->
        Error (Printf.sprintf "printed form %S does not parse: %s" src msg)
      | t' ->
        if t' = t then Ok ()
        else
          Error
            (Printf.sprintf "parse of %S rebuilt a different tree (reprints as %S)" src
               (Stmt.to_string t')))

(* [Stmt.make] builds the statement's shape once; every field must equal
   its derivation from the right-hand side, for generated statements and
   for the shrinks the harness would try (which rebuild through
   [Stmt.make] too). The derivations themselves must match the
   append-based definitions in [Oracles.Expr_walk]. *)
let shape_fields_derived () =
  let derived (s : Stmt.t) =
    let rhs = s.Stmt.rhs in
    Stmt.inputs s = Expr.refs rhs
    && Stmt.ops s = Expr.ops rhs
    && Stmt.nested s = Ndp_ir.Nested_set.of_expr rhs
    && Expr.refs rhs = Oracles.Expr_walk.refs rhs
    && Expr.ops rhs = Oracles.Expr_walk.ops rhs
    && Ndp_ir.Nested_set.of_expr rhs = Oracles.Expr_walk.nested rhs
  in
  forall ~count:400 ~name:"statement shape = derivation" arb_stmt (fun t ->
      match List.find_opt (fun s -> not (derived s)) (t :: shrink_stmt t) with
      | None -> Ok ()
      | Some s ->
        Error
          (Printf.sprintf "shape fields of %S differ from Expr/Nested_set" (Stmt.to_string s)))

(* -------------------------------------------------------------------- *)
(* Dependence analysis vs. the naive oracle.                             *)

(* Random single-nest programs over three shared data arrays and one
   index array, with small strides and offsets so accesses overlap often
   (the interesting case for the address-bucketed analyze). *)
type dep_case = { trip : int; body : Stmt.t list }

let dep_arrays = Ndp_ir.Array_decl.layout [ ("a", 64, 8); ("b", 64, 8); ("c", 64, 8) ]

let gen_dep_ref rng =
  let name = [| "a"; "b"; "c" |].(Rng.int rng 3) in
  let sub =
    let affine = Sub.affine [ ("i", 1 + Rng.int rng 2) ] (Rng.int rng 4) in
    if Rng.chance rng 0.25 then Sub.indirect "y" affine else affine
  in
  Ref.make name sub

let gen_dep_stmt rng =
  let rhs =
    let r1 = Expr.Ref (gen_dep_ref rng) in
    if Rng.bool rng then r1 else Expr.Binop (Op.Add, r1, Expr.Ref (gen_dep_ref rng))
  in
  Stmt.make (gen_dep_ref rng) rhs

let gen_dep_case rng =
  let trip = 3 + Rng.int rng 5 in
  let body = List.init (1 + Rng.int rng 3) (fun _ -> gen_dep_stmt rng) in
  { trip; body }

let shrink_dep_case { trip; body } =
  (if trip > 1 then [ { trip = trip - 1; body } ] else [])
  @ (if List.length body > 1 then
       List.mapi (fun i _ -> { trip; body = List.filteri (fun j _ -> j <> i) body }) body
     else [])
  @ List.concat
      (List.mapi
         (fun i s ->
           List.map
             (fun s' -> { trip; body = List.mapi (fun j t -> if j = i then s' else t) body })
             (shrink_stmt s))
         body)

let print_dep_case { trip; body } =
  Printf.sprintf "for i in [0,%d): %s" trip
    (String.concat "; " (List.map Stmt.to_string body))

(* The compiler's static view: affine subscripts resolve to addresses,
   indirect ones stay opaque and fall back to per-array may-deps. *)
let dep_resolver (r : Ref.t) env =
  match Sub.eval_affine env r.Ref.subscript with
  | Some i -> Some (Ndp_ir.Array_decl.address (Ndp_ir.Array_decl.find dep_arrays r.Ref.array) i)
  | None -> None

let dep_stream { trip; body } =
  let nest = Ndp_ir.Loop.nest ~sweeps:1 "n" [ { Ndp_ir.Loop.var = "i"; lo = 0; hi = trip } ] body in
  List.concat_map
    (fun env -> List.mapi (fun stmt_idx stmt -> { Dep.stmt_idx; stmt; env }) body)
    (Ndp_ir.Loop.iterations nest)

let dep_to_tuple (d : Dep.dep) = (d.Dep.src, d.Dep.dst, d.Dep.kind, d.Dep.may)

let analyze_equals_oracle () =
  forall ~count:80 ~name:"analyze = naive oracle"
    { gen = gen_dep_case; shrink = shrink_dep_case; print = print_dep_case }
    (fun case ->
      let stream = dep_stream case in
      let fast = List.map dep_to_tuple (Dep.analyze dep_resolver stream) in
      let naive = List.map dep_to_tuple (Oracles.analyze_naive dep_resolver stream) in
      if fast = naive then Ok ()
      else
        Error
          (Printf.sprintf "bucketed analyze found %d deps, naive oracle %d (or different order)"
             (List.length fast) (List.length naive)))

(* [analyze ~band] must be exactly the naive oracle's pairs closer than
   [band], order and duplicates included — for the degenerate bands 1
   (nothing) and 2 (neighbours), a random band, and bands reaching past
   the stream's end (everything). *)
let banded_analyze_equals_filtered_oracle () =
  forall ~count:80 ~name:"analyze ~band = naive oracle filtered to the band"
    {
      gen = (fun rng -> (gen_dep_case rng, 1 + Rng.int rng 12));
      shrink = (fun (case, band) -> List.map (fun c -> (c, band)) (shrink_dep_case case));
      print = (fun (case, band) -> Printf.sprintf "%s, random band %d" (print_dep_case case) band);
    }
    (fun (case, rand_band) ->
      let stream = dep_stream case in
      let n = List.length stream in
      let naive = List.map dep_to_tuple (Oracles.analyze_naive dep_resolver stream) in
      let check band =
        let banded = List.map dep_to_tuple (Dep.analyze ~band dep_resolver stream) in
        let expected = List.filter (fun (src, dst, _, _) -> dst - src < band) naive in
        if banded = expected then None
        else
          Some
            (Printf.sprintf "band %d: analyze found %d deps, filtered oracle %d (or different order)"
               band (List.length banded) (List.length expected))
      in
      match List.find_map check [ 1; 2; rand_band; n; n + 1; max_int ] with
      | None -> Ok ()
      | Some msg -> Error msg)

(* -------------------------------------------------------------------- *)
(* Random kernels vs. the schedule race detector.                        *)

(* In-bounds by construction: arrays hold 64 elements, i ranges over at
   most 8 iterations, strides are <= 2 and offsets <= 3, and the y index
   array permutes [0,64). *)
let y_table = Array.init 64 (fun k -> k * 7 mod 64)

let gen_kernel rng =
  let trip = 4 + Rng.int rng 5 in
  let body = List.init (1 + Rng.int rng 3) (fun _ -> Stmt.to_string (gen_dep_stmt rng)) in
  Spec.kernel
    ~name:(Printf.sprintf "prop-%d" trip)
    ~description:"randomized property-test kernel"
    ~arrays:[ ("a", 64, 8); ("b", 64, 8); ("c", 64, 8); ("y", 64, 8) ]
    ~nests:[ Spec.nest ~sweeps:1 "n" [ ("i", 0, trip) ] body ]
    ~index_arrays:[ ("y", y_table) ]
    ()

let print_kernel (k : Ndp_core.Kernel.t) =
  String.concat "; " (List.map Stmt.to_string (Ndp_ir.Loop.all_statements k.Ndp_core.Kernel.program))

let gen_scheme rng =
  (* Half the schemes fuse: fused schedules must pass the race detector
     exactly as unfused ones do. *)
  let fuse = Rng.bool rng in
  match Rng.int rng 4 with
  | 0 -> Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.fuse = fuse }
  | n ->
    Pipeline.Partitioned
      { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed n; fuse }

let schedules_pass_race_validator () =
  forall ~count:15 ~name:"random schedules race-free"
    {
      gen = (fun rng -> (gen_kernel rng, gen_scheme rng));
      (* Kernel shrinking would re-derive the whole compile+simulate
         pipeline per candidate; a failure here names the kernel body,
         which is already minimal enough to replay by hand. *)
      shrink = (fun _ -> []);
      print =
        (fun (k, scheme) ->
          Printf.sprintf "%s under %s" (print_kernel k) (Pipeline.scheme_name scheme));
    }
    (fun (kernel, scheme) ->
      let diags = Ndp_analysis.Validate.check_kernel scheme kernel in
      match List.filter Ndp_analysis.Diagnostic.is_error diags with
      | [] -> Ok ()
      | errs ->
        Error
          (String.concat "\n    " (List.map Ndp_analysis.Diagnostic.to_string errs)))

(* -------------------------------------------------------------------- *)
(* Empty fault plan = no fault plan.                                     *)

let empty_plan_is_identity () =
  forall ~count:8 ~name:"empty fault plan is identity"
    {
      gen = gen_kernel;
      shrink = (fun _ -> []);
      print = print_kernel;
    }
    (fun kernel ->
      let scheme =
        Pipeline.Partitioned
          { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed 2 }
      in
      let plain = Pipeline.Job.run (Pipeline.Job.make scheme kernel) in
      let mesh = Ndp_sim.Config.mesh Ndp_sim.Config.default in
      let faulted =
        Pipeline.Job.run (Pipeline.Job.make ~faults:(Plan.empty ~mesh) ~repair:true scheme kernel)
      in
      if plain.Pipeline.exec_time <> faulted.Pipeline.exec_time then
        Error
          (Printf.sprintf "exec_time diverged: %d plain vs %d with empty plan"
             plain.Pipeline.exec_time faulted.Pipeline.exec_time)
      else if
        Ndp_sim.Stats.to_alist plain.Pipeline.stats
        <> Ndp_sim.Stats.to_alist faulted.Pipeline.stats
      then Error "stats diverged under an empty fault plan"
      else if plain.Pipeline.node_finish <> faulted.Pipeline.node_finish then
        Error "per-node finish times diverged under an empty fault plan"
      else if faulted.Pipeline.remapped_tasks <> 0 then
        Error
          (Printf.sprintf "empty plan repaired %d tasks" faulted.Pipeline.remapped_tasks)
      else Ok ())

(* -------------------------------------------------------------------- *)
(* Analytic window model vs. the sampled estimator.                      *)

(* Restricted kernels on which the closed form is provably exact: every
   statement touches its own arrays (no dependences, so no sync arcs and
   an empty chunk slice), and every subscript strides a full cache line
   (8 words at 8-byte elements), so the reuse map never hits and both
   paths price every instance with the same margin rule. On this class
   the sampled [Oracles.movement_estimate] must equal the analytic total
   exactly, for every window size. *)
type analytic_case = { a_trip : int; a_stmts : int * int list (* inputs per stmt *) }

let gen_analytic_case rng =
  let nstmts = 1 + Rng.int rng 3 in
  { a_trip = 4 + Rng.int rng 7; a_stmts = (nstmts, List.init nstmts (fun _ -> 1 + Rng.int rng 3)) }

let analytic_kernel { a_trip; a_stmts = nstmts, inputs } =
  let arrays = ref [] in
  let body =
    List.init nstmts (fun k ->
        let out = Printf.sprintf "o%d" k in
        let ins = List.init (List.nth inputs k) (fun j -> Printf.sprintf "x%d_%d" k j) in
        arrays := (out :: ins) @ !arrays;
        Printf.sprintf "%s[8*i+%d] = %s" out (k mod 8)
          (String.concat " + " (List.map (fun a -> Printf.sprintf "%s[8*i+%d]" a (k mod 8)) ins)))
  in
  Spec.kernel ~name:"prop-analytic" ~description:"affine-only, dependence-free"
    ~arrays:(List.map (fun a -> (a, (8 * a_trip) + 8, 8)) (List.sort_uniq compare !arrays))
    ~nests:[ Spec.nest ~sweeps:1 "n" [ ("i", 0, a_trip) ] body ]
    ()

let print_analytic_case c =
  Printf.sprintf "trip %d, inputs per stmt [%s]" c.a_trip
    (String.concat "; " (List.map string_of_int (snd c.a_stmts)))

let analytic_equals_sampled_estimate () =
  forall ~count:60 ~name:"analytic = sampled estimate on affine-only kernels"
    { gen = gen_analytic_case; shrink = (fun _ -> []); print = print_analytic_case }
    (fun case ->
      let kernel = analytic_kernel case in
      let scheme = Pipeline.Partitioned Pipeline.partitioned_defaults in
      let nest = List.hd kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests in
      let rec check_w w =
        if w > 4 then Ok ()
        else begin
          let sampled_ctx = Pipeline.static_context scheme kernel in
          let analytic_ctx = Pipeline.static_context scheme kernel in
          let metas, _ = Pipeline.nest_stream sampled_ctx nest ~first_group:0 in
          let sampled = Oracles.movement_estimate sampled_ctx metas ~window:w in
          let a = Ndp_core.Window.analytic_of analytic_ctx metas ~window:w in
          let analytic =
            Array.fold_left ( + ) 0 a.Ndp_core.Window.a_est
            + (Ndp_core.Window.sync_links_of analytic_ctx * a.Ndp_core.Window.a_syncs)
          in
          if sampled <> analytic then
            Error
              (Printf.sprintf "window %d: sampled estimate %d vs analytic %d" w sampled analytic)
          else check_w (w + 1)
        end
      in
      check_w 1)

(* [Adaptive] and [Analytic] name one sizer: on every kernel of the suite
   they must pick the same windows and so produce the same run. *)
let adaptive_is_analytic_suite () =
  List.iter
    (fun name ->
      let kernel = Ndp_workloads.Suite.find name in
      let run window =
        Pipeline.Job.run
          (Pipeline.Job.make
             (Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window })
             kernel)
      in
      let a = run Pipeline.Adaptive and b = run Pipeline.Analytic in
      Alcotest.(check (list (pair string int)))
        (name ^ " windows") a.Pipeline.windows_chosen b.Pipeline.windows_chosen;
      Alcotest.(check int) (name ^ " exec_time") a.Pipeline.exec_time b.Pipeline.exec_time;
      Alcotest.(check (list (pair string int)))
        (name ^ " stats")
        (Ndp_sim.Stats.to_alist a.Pipeline.stats)
        (Ndp_sim.Stats.to_alist b.Pipeline.stats))
    Ndp_workloads.Suite.names

(* -------------------------------------------------------------------- *)
(* Static cost table vs. the measured ledger, whole suite.               *)

let divergence ~static ~measured =
  if static = 0 && measured = 0 then 1.0
  else if static = 0 || measured = 0 then infinity
  else
    let a = float_of_int static and b = float_of_int measured in
    if a > b then a /. b else b /. a

let analyze_reconciles_suite () =
  (* The same gate `ndp_run analyze` applies, over every workload and both
     schemes: the static table must stay within the divergence threshold
     of what the simulated NoC actually carried. *)
  let threshold = 4.0 in
  List.iter
    (fun name ->
      let kernel = Ndp_workloads.Suite.find name in
      List.iter
        (fun scheme ->
          let table = Ndp_analysis.Cost.table ~scheme kernel in
          let obs = Ndp_obs.Sink.create ~metrics:false ~trace:false ~ledger:true () in
          let _ = Pipeline.Job.run ~obs (Pipeline.Job.make scheme kernel) in
          let measured = Ndp_obs.Ledger.total_flit_hops obs.Ndp_obs.Sink.ledger in
          let ratio = divergence ~static:table.Ndp_analysis.Cost.total_flit_hops ~measured in
          if ratio > threshold then
            Alcotest.failf "%s under %s: static %d vs measured %d flit-hops (x%.2f > x%.2f)" name
              (Pipeline.scheme_name scheme) table.Ndp_analysis.Cost.total_flit_hops measured ratio
              threshold)
        [
          Pipeline.Default;
          Pipeline.Partitioned
            { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Analytic };
        ])
    Ndp_workloads.Suite.names

(* -------------------------------------------------------------------- *)
(* Fusion: semantics preserved, capacity 0 is the identity pass.         *)

module Fusion = Ndp_core.Fusion
module Window = Ndp_core.Window

(* Random flow-only chain kernels — the class fusion targets: statement k
   writes its own array o{k}[i] and reads pure inputs plus earlier
   outputs of the same iteration, so every hazard is a producer→consumer
   flow dependence. All subscripts are affine and in bounds (64-element
   arrays, trips <= 8, strides <= 2, offsets <= 3). *)
type chain_case = { c_trip : int; c_reads : int list list }
(* [c_reads] row k lists which earlier statements k reads (j < k); each
   row implicitly also reads one fresh input array. *)

let gen_chain_case rng =
  let nstmts = 2 + Rng.int rng 4 in
  let reads =
    List.init nstmts (fun k ->
        List.filter (fun j -> j < k) (List.init (Rng.int rng 3) (fun _ -> Rng.int rng nstmts)))
  in
  { c_trip = 4 + Rng.int rng 5; c_reads = List.map (List.sort_uniq compare) reads }

let shrink_chain_case { c_trip; c_reads } =
  (if c_trip > 2 then [ { c_trip = c_trip - 1; c_reads } ] else [])
  @ (if List.length c_reads > 2 then
       (* Dropping the last statement is safe: earlier rows never read it. *)
       [ { c_trip; c_reads = List.filteri (fun k _ -> k < List.length c_reads - 1) c_reads } ]
     else [])
  @ List.concat
      (List.mapi
         (fun k row ->
           List.map
             (fun j ->
               {
                 c_trip;
                 c_reads =
                   List.mapi
                     (fun k' row' -> if k' = k then List.filter (( <> ) j) row' else row')
                     c_reads;
               })
             row)
         c_reads)

let chain_kernel { c_trip; c_reads } =
  let body =
    List.mapi
      (fun k row ->
        let reads =
          Printf.sprintf "x%d[%d*i+%d]" k (1 + (k mod 2)) (k mod 4)
          :: List.map (fun j -> Printf.sprintf "o%d[i]" j) row
        in
        Printf.sprintf "o%d[i] = %s" k (String.concat " + " reads))
      c_reads
  in
  let arrays =
    List.concat_map
      (fun k -> [ (Printf.sprintf "o%d" k, 64, 8); (Printf.sprintf "x%d" k, 64, 8) ])
      (List.init (List.length c_reads) Fun.id)
  in
  Spec.kernel ~name:"prop-chain" ~description:"flow-only fusion chain"
    ~arrays:(List.sort_uniq compare arrays)
    ~nests:[ Spec.nest ~sweeps:1 "n" [ ("i", 0, c_trip) ] body ]
    ()

let print_chain_case c =
  Printf.sprintf "for i in [0,%d): %s" c.c_trip
    (String.concat "; "
       (List.map Stmt.to_string (Ndp_ir.Loop.all_statements (chain_kernel c).Ndp_core.Kernel.program)))

(* A tiny reference interpreter over float array states. Division guards
   to 0 and bitwise operators truncate to ints; the generators above only
   emit Add, so this totality is belt-and-braces. *)
let apply_op op a b =
  match op with
  | Op.Add -> a +. b
  | Op.Sub -> a -. b
  | Op.Mul -> a *. b
  | Op.Div -> if b = 0. then 0. else a /. b
  | Op.Shl | Op.Shr | Op.Band | Op.Bor | Op.Bxor ->
    let ia = int_of_float a and ib = int_of_float b land 62 in
    float_of_int
      (match op with
      | Op.Shl -> ia lsl ib
      | Op.Shr -> ia asr ib
      | Op.Band -> ia land int_of_float b
      | Op.Bor -> ia lor int_of_float b
      | _ -> ia lxor int_of_float b)

(* Execute the statement instances in [order] and digest the final array
   state. Initial contents are a deterministic nonzero function of (array,
   index); out-of-range indices wrap like [Array_decl.address]. *)
let interp_digest (kernel : Ndp_core.Kernel.t) order =
  let store =
    List.map
      (fun (d : Ndp_ir.Array_decl.t) ->
        ( d.Ndp_ir.Array_decl.name,
          Array.init d.Ndp_ir.Array_decl.length (fun i ->
              float_of_int ((Hashtbl.hash (d.Ndp_ir.Array_decl.name, i) mod 97) + 1)) ))
      kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.arrays
  in
  let slot name i =
    let a = List.assoc name store in
    let n = Array.length a in
    (a, ((i mod n) + n) mod n)
  in
  let rec eval env = function
    | Expr.Const c -> c
    | Expr.Group e -> eval env e
    | Expr.Binop (op, a, b) -> apply_op op (eval env a) (eval env b)
    | Expr.Ref r -> (
      match Sub.eval_affine env r.Ref.subscript with
      | Some i ->
        let a, i = slot r.Ref.array i in
        a.(i)
      | None -> Alcotest.fail "non-affine reference reached the interpreter")
  in
  List.iter
    (fun (inst : Dep.instance) ->
      let s = inst.Dep.stmt in
      let v = eval inst.Dep.env s.Stmt.rhs in
      match Sub.eval_affine inst.Dep.env s.Stmt.lhs.Ref.subscript with
      | Some i ->
        let a, i = slot s.Stmt.lhs.Ref.array i in
        a.(i) <- v
      | None -> Alcotest.fail "non-affine store reached the interpreter")
    order;
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (List.map
             (fun (n, a) ->
               n ^ ":" ^ String.concat "," (Array.to_list (Array.map string_of_float a)))
             store)))

(* Compile the whole nest as one window (fused or not) and return the
   statement instances in root-emission order: each instance keyed by the
   position of its root (store-performing) task in the level-major task
   list. This is the order the schedule retires outputs in; flow
   dependences force a producer's root to an earlier position than any
   consumer's. *)
let scheduled_order (kernel : Ndp_core.Kernel.t) ~fuse =
  let scheme = Pipeline.Partitioned Pipeline.partitioned_defaults in
  let ctx = Pipeline.static_context scheme kernel in
  let nest = List.hd kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests in
  let metas, _ = Pipeline.nest_stream ctx nest ~first_group:0 in
  let insts = List.map (fun (m : Window.meta) -> m.Window.inst) metas in
  let deps = Dep.analyze ctx.Ndp_core.Context.compiler_resolve insts in
  let fusion =
    if not fuse then None
    else begin
      let insts_arr = Array.of_list insts in
      let default_node =
        Array.of_list (List.map (fun (m : Window.meta) -> m.Window.default_node) metas)
      in
      let slots, _ =
        Fusion.plan ctx ~nest:nest.Ndp_ir.Loop.nest_name ~window:(List.length metas)
          ~capacity:Ndp_sim.Config.default.Ndp_sim.Config.l1_size
          ~shared:(Hashtbl.create 1) ~default_node insts_arr (Array.of_list deps)
      in
      Some slots
    end
  in
  let compiled = Window.compile ~deps ?fusion ctx metas in
  let pos = Hashtbl.create 64 in
  List.iteri
    (fun i ((t : Ndp_sim.Task.t), _level) -> Hashtbl.replace pos t.Ndp_sim.Task.id i)
    compiled.Window.tasks;
  let root_pos group =
    match List.assoc_opt group compiled.Window.roots with
    | Some task -> Hashtbl.find pos task
    | None -> Alcotest.failf "no root task recorded for statement group %d" group
  in
  ( List.map snd
      (List.sort compare
         (List.map (fun (m : Window.meta) -> (root_pos m.Window.group, m.Window.inst)) metas)),
    match fusion with
    | Some slots ->
      Array.exists (function Some { Fusion.f_elide = true; _ } -> true | _ -> false) slots
    | None -> false )

let fusion_preserves_semantics () =
  let fused_nonempty = ref 0 in
  forall ~count:40 ~name:"fusion preserves array state"
    { gen = gen_chain_case; shrink = shrink_chain_case; print = print_chain_case }
    (fun case ->
      let kernel = chain_kernel case in
      let program_order =
        let nest = List.hd kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests in
        List.concat_map
          (fun env ->
            List.mapi (fun stmt_idx stmt -> { Dep.stmt_idx; stmt; env }) nest.Ndp_ir.Loop.body)
          (Ndp_ir.Loop.iterations nest)
      in
      let reference = interp_digest kernel program_order in
      let unfused_order, _ = scheduled_order kernel ~fuse:false in
      let fused_order, elided = scheduled_order kernel ~fuse:true in
      if elided then incr fused_nonempty;
      let unfused = interp_digest kernel unfused_order in
      let fused = interp_digest kernel fused_order in
      if unfused <> reference then
        Error
          (Printf.sprintf "unfused schedule order diverged from program order (%s vs %s)"
             unfused reference)
      else if fused <> reference then
        Error
          (Printf.sprintf "fused schedule order diverged from program order (%s vs %s)" fused
             reference)
      else Ok ());
  (* The property is vacuous if no generated case ever fused. *)
  if !fused_nonempty = 0 then
    Alcotest.fail "no generated chain kernel produced a fusion elision"

let capacity_zero_is_identity () =
  forall ~count:25 ~name:"fuse with capacity 0 is the identity pass"
    { gen = gen_dep_case; shrink = shrink_dep_case; print = print_dep_case }
    (fun case ->
      let kernel =
        Spec.kernel ~name:"prop-cap0" ~description:"capacity-0 identity case"
          ~arrays:[ ("a", 64, 8); ("b", 64, 8); ("c", 64, 8); ("y", 64, 8) ]
          ~nests:
            [
              Spec.nest ~sweeps:1 "n"
                [ ("i", 0, case.trip) ]
                (List.map Stmt.to_string case.body);
            ]
          ~index_arrays:[ ("y", y_table) ]
          ()
      in
      let run fuse =
        Pipeline.Job.run
          (Pipeline.Job.make
             (Pipeline.Partitioned
                {
                  Pipeline.partitioned_defaults with
                  Pipeline.window = Pipeline.Fixed 4;
                  fuse;
                  fuse_capacity = (if fuse then Some 0 else None);
                })
             kernel)
      in
      let plain = run false and fused = run true in
      if plain.Pipeline.exec_time <> fused.Pipeline.exec_time then
        Error
          (Printf.sprintf "exec_time diverged: %d plain vs %d with capacity-0 fusion"
             plain.Pipeline.exec_time fused.Pipeline.exec_time)
      else if
        Ndp_sim.Stats.to_alist plain.Pipeline.stats
        <> Ndp_sim.Stats.to_alist fused.Pipeline.stats
      then Error "stats diverged under capacity-0 fusion"
      else if fused.Pipeline.fusion_decisions <> [] then
        Error
          (Printf.sprintf "capacity-0 fusion still recorded %d decisions"
             (List.length fused.Pipeline.fusion_decisions))
      else Ok ())

(* -------------------------------------------------------------------- *)
(* The shrinker itself: a deliberately false property must minimize.     *)

let shrinker_minimizes () =
  (* Any statement whose rhs contains a division fails; the minimal
     failing tree under [shrink_stmt] is [lhs = x / y] with constant
     operands. Run the same greedy descent [forall] uses and check it
     lands on a single-binop counterexample. *)
  let has_div (s : Stmt.t) = List.mem Op.Div (Expr.ops s.Stmt.rhs) in
  let rng = Rng.create 7 in
  let rec find_failing () =
    let t = gen_stmt rng in
    if has_div t then t else find_failing ()
  in
  let t = find_failing () in
  let rec minimize x fuel =
    if fuel = 0 then x
    else
      match List.find_opt has_div (shrink_stmt x) with
      | Some c -> minimize c (fuel - 1)
      | None -> x
  in
  let m = minimize t 500 in
  Alcotest.(check bool) "still failing" true (has_div m);
  Alcotest.(check int) "exactly one operator left" 1 (Expr.op_count m.Stmt.rhs);
  match m.Stmt.rhs with
  | Expr.Binop (Op.Div, Expr.Const _, Expr.Const _) -> ()
  | _ -> Alcotest.failf "not minimal: %s" (Stmt.to_string m)

(* -------------------------------------------------------------------- *)
(* Rooted spanning trees vs. the hashtable oracle.                       *)

module Kruskal = Ndp_graph.Kruskal
module Tree = Ndp_graph.Rooted_tree

type tree_case = { t_root : int; t_edges : Kruskal.edge list }

(* Kruskal over a random weighted graph on up to 12 vertices (a spanning
   tree, or a forest when the graph is disconnected), then relabelled
   onto scattered ids in 0..63 like mesh nodes, so ascending order is not
   discovery order. A quarter of the cases gain an edge between two tree
   vertices (a cycle, duplicate or self-loop), a quarter an edge between
   two vertices outside the tree (not reaching the root). Edges are
   shuffled and their ends randomly swapped. *)
let gen_tree_case rng =
  let n = 1 + Rng.int rng 12 in
  let graph = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.chance rng 0.5 then graph := { Kruskal.u; v; weight = Rng.int rng 6 } :: !graph
    done
  done;
  let ids = Array.init 64 Fun.id in
  Rng.shuffle rng ids;
  let edge u v weight =
    if Rng.bool rng then { Kruskal.u; v; weight } else { Kruskal.u = v; v = u; weight }
  in
  let edges =
    List.map (fun (e : Kruskal.edge) -> edge ids.(e.u) ids.(e.v) e.weight) (Kruskal.mst ~n !graph)
  in
  let outside () = ids.(n + Rng.int rng (64 - n)) in
  let edges =
    match Rng.int rng 4 with
    | 0 -> edge ids.(Rng.int rng n) ids.(Rng.int rng n) (Rng.int rng 6) :: edges
    | 1 -> edge (outside ()) (outside ()) (Rng.int rng 6) :: edges
    | _ -> edges
  in
  let arr = Array.of_list edges in
  Rng.shuffle rng arr;
  { t_root = ids.(Rng.int rng n); t_edges = Array.to_list arr }

let arb_tree_case =
  {
    gen = gen_tree_case;
    shrink =
      (fun c ->
        List.mapi
          (fun i _ -> { c with t_edges = List.filteri (fun j _ -> j <> i) c.t_edges })
          c.t_edges);
    print =
      (fun c ->
        Printf.sprintf "root %d, edges [%s]" c.t_root
          (String.concat "; "
             (List.map
                (fun (e : Kruskal.edge) -> Printf.sprintf "%d-%d/%d" e.u e.v e.weight)
                c.t_edges)));
  }

let tree_matches_oracle () =
  let raised = Hashtbl.create 2 in
  let outcome f = match f () with x -> Ok x | exception Invalid_argument m -> Error m in
  let module O = Oracles.Rooted_tree in
  forall ~count:500 ~name:"rooted tree = hashtable oracle" arb_tree_case (fun c ->
      match
        ( outcome (fun () -> Tree.of_edges ~root:c.t_root c.t_edges),
          outcome (fun () -> O.of_edges ~root:c.t_root c.t_edges) )
      with
      | Error m, Error m' ->
        Hashtbl.replace raised m ();
        if m = m' then Ok () else Error (Printf.sprintf "raised %S, the oracle %S" m m')
      | Ok _, Error m' -> Error (Printf.sprintf "accepted; the oracle raised %S" m')
      | Error m, Ok _ -> Error (Printf.sprintf "raised %S; the oracle accepted" m)
      | Ok t, Ok o ->
        let differs what = Error (what ^ " differs from the oracle") in
        if Tree.root t <> O.root o then differs "root"
        else if Tree.vertices t <> O.vertices o then differs "vertices"
        else if Tree.postorder t <> O.postorder o then differs "postorder"
        else
          (* Every vertex, plus ids that are not in the tree. *)
          match
            List.find_opt
              (fun v ->
                Tree.children t v <> O.children o v
                || Tree.parent t v <> O.parent o v
                || outcome (fun () -> Tree.edge_weight t v)
                   <> outcome (fun () -> O.edge_weight o v))
              (-1 :: 64 :: O.vertices o)
          with
          | Some v -> differs (Printf.sprintf "children, parent or edge weight of %d" v)
          | None -> Ok ());
  List.iter
    (fun m -> Alcotest.(check bool) ("some case raised " ^ m) true (Hashtbl.mem raised m))
    [
      "Rooted_tree.of_edges: edge set contains a cycle";
      "Rooted_tree.of_edges: edge set is not a tree reaching the root";
    ]

(* -------------------------------------------------------------------- *)
(* Serve protocol: every request survives the JSON wire codec.           *)

module Proto = Ndp_serve.Protocol

(* Floats from a 1/8 grid: %.12g prints them exactly, so the codec's
   float round-trip is representational, not approximate. *)
let gen_grid_float rng = float_of_int (Rng.int rng 64) /. 8.0

let gen_spec rng =
  {
    Proto.app = Rng.pick rng [| "fft"; "water"; "lu"; "ocean" |];
    scheme = (if Rng.bool rng then "partitioned" else "default");
    window = Rng.pick rng [| "adaptive"; "analytic"; "2"; "8" |];
    cluster = Rng.pick rng [| "quadrant"; "all-to-all"; "snc-4" |];
    memory = Rng.pick rng [| "flat"; "cache"; "hybrid" |];
    tweaks =
      (if Rng.bool rng then Pipeline.no_tweaks
       else
         {
           Pipeline.l1_boost = gen_grid_float rng;
           distance_factor = 1.0 +. gen_grid_float rng;
           mc_overrides = (if Rng.bool rng then [] else [ (Rng.int rng 8, Rng.int rng 4) ]);
           cost_scale = 1.0 +. gen_grid_float rng;
           extra_syncs = Rng.int rng 3;
         });
    faults = Rng.pick rng [| ""; "kill=2"; "slow=1x2.5,stall=3@100+50" |];
    fault_seed = (if Rng.bool rng then None else Some (Rng.int rng 1000));
    repair = Rng.bool rng;
  }

let gen_request rng =
  match Rng.int rng 8 with
  | 0 -> Proto.Ping
  | 1 -> Proto.List_apps
  | 2 -> Proto.Run { spec = gen_spec rng; metrics = Rng.bool rng }
  | 3 -> Proto.Compile (gen_spec rng)
  | 4 -> Proto.Profile { spec = gen_spec rng; interval = Rng.int rng 5000; top = Rng.int rng 20 }
  | 5 -> Proto.Analyze { spec = gen_spec rng; threshold = 1.0 +. gen_grid_float rng }
  | 6 -> Proto.Batch [ gen_spec rng; gen_spec rng ]
  | _ ->
    Proto.Sweep
      {
        spec = gen_spec rng;
        variants =
          [
            {
              Proto.v_name = "v" ^ string_of_int (Rng.int rng 10);
              v_overrides = [ ("hop_cycles", 1 + Rng.int rng 64) ];
              v_tweaks = Pipeline.no_tweaks;
            };
          ];
      }

let request_round_trip () =
  forall ~count:200 ~name:"serve request wire round-trip"
    {
      gen = (fun rng -> (1 + Rng.int rng 1000, gen_request rng));
      shrink = (fun _ -> []);
      print =
        (fun (id, r) -> Ndp_obs.Render.Json.to_string (Proto.request_to_json ~id r));
    }
    (fun (id, r) ->
      match Proto.request_of_json (Proto.request_to_json ~id r) with
      | Ok (id', r') when id' = id && r' = r -> Ok ()
      | Ok _ -> Error "decoded to a different request"
      | Error m -> Error m)

let tests =
  [
    ( "prop",
      [
        Alcotest.test_case "parser print/parse round-trip" `Quick parser_round_trip;
        Alcotest.test_case "dependence analyze = naive oracle" `Quick analyze_equals_oracle;
        Alcotest.test_case "random schedules pass race validator" `Slow
          schedules_pass_race_validator;
        Alcotest.test_case "empty fault plan is identity" `Slow empty_plan_is_identity;
        Alcotest.test_case "analytic = sampled estimate (affine-only)" `Quick
          analytic_equals_sampled_estimate;
        Alcotest.test_case "static cost table reconciles with ledger (suite)" `Slow
          analyze_reconciles_suite;
        Alcotest.test_case "fusion preserves array state" `Slow fusion_preserves_semantics;
        Alcotest.test_case "fuse with capacity 0 is the identity pass" `Slow
          capacity_zero_is_identity;
        Alcotest.test_case "shrinker reaches a minimal counterexample" `Quick shrinker_minimizes;
        Alcotest.test_case "serve request wire round-trip" `Quick request_round_trip;
        Alcotest.test_case "banded analyze = filtered naive oracle" `Quick
          banded_analyze_equals_filtered_oracle;
        Alcotest.test_case "adaptive = analytic runs (suite)" `Slow adaptive_is_analytic_suite;
        Alcotest.test_case "statement shape = derivation" `Quick shape_fields_derived;
        Alcotest.test_case "rooted tree = hashtable oracle" `Quick tree_matches_oracle;
      ] );
  ]
