(* Reference implementations the shipped libraries no longer carry: the
   O(n^2) dependence analysis, the sampled window-size search that
   compiles every candidate chunk from scratch, the hashtable-based
   rooted spanning tree, and the append-based expression walks. They are
   deliberately
   naive — written from the definitions rather than shared with the code
   under test — so the equivalence tests check the optimized paths
   against an independent answer. *)

module Dep = Ndp_ir.Dependence
module Window = Ndp_core.Window
module Context = Ndp_core.Context

(* Every instance pair (i < j) in order; per pair the output dependence,
   then a flow dependence per input of j, then an anti dependence per
   input of i. Two accesses conflict when they share an array and either
   resolve to the same address (a must-dependence) or one side cannot be
   resolved (a may-dependence). *)
let analyze_naive (resolver : Dep.resolver) (instances : Dep.instance list) =
  let resolve (inst : Dep.instance) =
    let access r = (r.Ndp_ir.Reference.array, resolver r inst.Dep.env) in
    (access (Ndp_ir.Stmt.output inst.Dep.stmt), List.map access (Ndp_ir.Stmt.inputs inst.Dep.stmt))
  in
  let conflict (a, x) (b, y) =
    if a <> b then None
    else match (x, y) with Some x, Some y -> if x = y then Some false else None | _ -> Some true
  in
  let arr = Array.of_list (List.map resolve instances) in
  let n = Array.length arr in
  let deps = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let wi, ri = arr.(i) and wj, rj = arr.(j) in
      let add kind = function
        | Some may -> deps := { Dep.src = i; dst = j; kind; may } :: !deps
        | None -> ()
      in
      add Dep.Output (conflict wi wj);
      List.iter (fun r -> add Dep.Flow (conflict wi r)) rj;
      List.iter (fun r -> add Dep.Anti (conflict r wj)) ri
    done
  done;
  List.rev !deps

(* Total estimated movement plus synchronization cost (in links) when the
   stream is compiled under a fixed window size, every chunk analyzed and
   compiled from scratch on a forked context. *)
let movement_estimate (ctx : Context.t) metas ~window =
  let ctx = Context.fork_for_estimate ctx in
  let sync_links = Window.sync_links_of ctx in
  List.fold_left
    (fun acc chunk ->
      let compiled = Window.compile ctx chunk in
      List.fold_left
        (fun acc (r : Window.stmt_report) -> acc + r.Window.est_movement)
        (acc + (sync_links * compiled.Window.sync_count))
        compiled.Window.reports)
    0 (Window.chunk metas window)

(* The sizer's sample: the first 256 instances of the nest. *)
let sample_size = 256

(* The sampled window-size search: the size in [1..max] with the least
   [movement_estimate] over the sample, the smallest size winning ties. *)
let choose_size_reanalyze (ctx : Context.t) metas ~max:max_size =
  let sample = List.filteri (fun i _ -> i < sample_size) metas in
  let rec best w best_w best_m =
    if w > max_size then best_w
    else begin
      let m = movement_estimate ctx sample ~window:w in
      if m < best_m then best (w + 1) w m else best (w + 1) best_w best_m
    end
  in
  best 1 1 max_int

(* A rooted view of a spanning tree: adjacency, parent and child maps in
   hashtables, filled by a BFS from the root that visits each vertex's
   neighbours in ascending (vertex, weight) order. Same interface and
   [Invalid_argument] messages as [Ndp_graph.Rooted_tree]. *)
module Rooted_tree = struct
  module Kruskal = Ndp_graph.Kruskal

  type t = {
    root : int;
    parents : (int, int * int) Hashtbl.t; (* vertex -> parent, edge weight *)
    childmap : (int, int list) Hashtbl.t;
    order : int list; (* vertices in BFS order from the root *)
  }

  let of_edges ~root edges =
    let adj = Hashtbl.create 16 in
    let add u v w =
      let cur = Option.value (Hashtbl.find_opt adj u) ~default:[] in
      Hashtbl.replace adj u ((v, w) :: cur)
    in
    List.iter (fun (e : Kruskal.edge) -> add e.u e.v e.weight; add e.v e.u e.weight) edges;
    let parents = Hashtbl.create 16 in
    let childmap = Hashtbl.create 16 in
    let visited = Hashtbl.create 16 in
    Hashtbl.replace visited root ();
    let order = ref [ root ] in
    let queue = Queue.create () in
    Queue.push root queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let neighbors = Option.value (Hashtbl.find_opt adj u) ~default:[] in
      let attach (v, w) =
        if not (Hashtbl.mem visited v) then begin
          Hashtbl.replace visited v ();
          Hashtbl.replace parents v (u, w);
          let cur = Option.value (Hashtbl.find_opt childmap u) ~default:[] in
          Hashtbl.replace childmap u (v :: cur);
          order := v :: !order;
          Queue.push v queue
        end
        else
          match Hashtbl.find_opt parents u with
          | Some (p, _) when p = v -> ()
          | _ when v = root && u <> root -> ()
          | _ ->
            (* A visited neighbor that is not our parent means a cycle. *)
            if not (u = root && Hashtbl.mem parents v) then
              invalid_arg "Rooted_tree.of_edges: edge set contains a cycle"
      in
      List.iter attach (List.sort compare neighbors)
    done;
    if Hashtbl.length visited <> List.length edges + 1 then
      invalid_arg "Rooted_tree.of_edges: edge set is not a tree reaching the root";
    { root; parents; childmap; order = List.rev !order }

  let root t = t.root

  let children t v = List.sort compare (Option.value (Hashtbl.find_opt t.childmap v) ~default:[])

  let parent t v = Option.map fst (Hashtbl.find_opt t.parents v)

  let vertices t = t.order

  let edge_weight t v =
    match Hashtbl.find_opt t.parents v with
    | Some (_, w) -> w
    | None -> invalid_arg "Rooted_tree.edge_weight: root has no parent edge"

  let postorder t =
    let rec walk v acc = v :: List.fold_right walk (children t v) acc in
    List.rev (walk t.root [])
end

(* A right-hand side's references, operators and nested set, written
   straight from their definitions with [@]: left operand, then the
   operator, then the right operand. *)
module Expr_walk = struct
  module Expr = Ndp_ir.Expr
  module Nested_set = Ndp_ir.Nested_set

  let rec refs = function
    | Expr.Const _ -> []
    | Expr.Ref r -> [ r ]
    | Expr.Binop (_, a, b) -> refs a @ refs b
    | Expr.Group e -> refs e

  let rec ops = function
    | Expr.Const _ | Expr.Ref _ -> []
    | Expr.Binop (op, a, b) -> ops a @ [ op ] @ ops b
    | Expr.Group e -> ops e

  let rec nested expr : Nested_set.t =
    match expr with
    | Expr.Const c -> { items = [ Const c ]; level_ops = []; reassociable = true }
    | Expr.Ref r -> { items = [ Ref r ]; level_ops = []; reassociable = true }
    | Expr.Group e -> nested e
    | Expr.Binop _ ->
      let rec flatten e =
        match e with
        | Expr.Binop (op', a, b) ->
          let items_a, ops_a = flatten a in
          let items_b, ops_b = flatten b in
          (items_a @ items_b, ops_a @ [ op' ] @ ops_b)
        | Expr.Const c -> ([ Nested_set.Const c ], [])
        | Expr.Ref r -> ([ Nested_set.Ref r ], [])
        | Expr.Group inner -> (
          let sub = nested inner in
          match sub.items with
          | [ single ] when sub.level_ops = [] -> ([ single ], [])
          | _ -> ([ Nested_set.Sub sub ], []))
      in
      let items, level_ops = flatten expr in
      { items; level_ops; reassociable = List.for_all Ndp_ir.Op.commutative_associative level_ops }
end
