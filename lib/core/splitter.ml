module Kruskal = Ndp_graph.Kruskal
module Mesh = Ndp_noc.Mesh

type t = {
  edges : Kruskal.edge list;
  items_at : (int * Location.t list) list;
  store_node : int;
  store : (int * int) option;
  nodes : int list;
  est_movement : int;
  predictions : (int * bool) list;
}

(* A component is the "single node" of the level-based optimization: either
   one located reference or an already-processed inner set, identified by
   the physical nodes its data occupies. *)
type component = { members : int list }

(* The first minimum-distance pair (u, v), u over [us] and v over [vs],
   lands in [best]; no closure or ref per component pair. *)
type best = { mutable bu : int; mutable bv : int; mutable bw : int }

let rec min_pair_into ctx best us vs =
  match us with
  | [] -> ()
  | u :: us ->
    min_pair_from ctx best u vs;
    min_pair_into ctx best us vs

and min_pair_from ctx best u = function
  | [] -> ()
  | v :: vs ->
    let w = Context.distance ctx u v in
    if w < best.bw then begin
      best.bu <- u;
      best.bv <- v;
      best.bw <- w
    end;
    min_pair_from ctx best u vs

let min_pair ctx a b =
  let best = { bu = -1; bv = -1; bw = max_int } in
  min_pair_into ctx best a.members b.members;
  (best.bu, best.bv, best.bw)

(* Kruskal over components: the candidate edge between two components is
   the concrete minimum-distance pair of member nodes ([Context.distance],
   so under a repair plan the tree grows over the surviving mesh with
   degraded link weights). [guf] is the statement-global union-find over
   physical nodes: Algorithm 1 pools the per-level MST edges into one
   MSTedges set, so an edge whose endpoints are already physically
   connected (by a sibling level's tree) would create a cycle and is
   skipped — the existing path is reused. *)
let mst_over_generic ctx ~guf ~uf components =
  let n = List.length components in
  let arr = Array.of_list components in
  let candidates = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let u, v, w = min_pair ctx arr.(i) arr.(j) in
      candidates := (w, i, j, u, v) :: !candidates
    done
  done;
  let sorted = List.sort compare !candidates in
  let pick acc (w, i, j, u, v) =
    if Ndp_graph.Union_find.union uf i j then
      (* A zero-weight merge means the components share a physical node:
         no link is traversed, so no tree edge is recorded. *)
      if w = 0 || not (Ndp_graph.Union_find.union guf u v) then acc
      else { Kruskal.u; v; weight = w } :: acc
    else acc
  in
  List.fold_left pick [] sorted

(* Allocation-free fast path of [mst_over_generic]: each candidate edge is
   packed into a single int with the fields in the significance order the
   tuple sort compared them — (weight, i, j, u, v), 6 bits per id field —
   so sorting the packed array is the identical total order and the
   Kruskal walk below visits candidates exactly as the list version did.
   Component counts and node ids stay under 64 on any mesh this simulator
   builds; the weight has the remaining 38 bits, far above any fault-plan
   route cost. The generic path remains for anything larger. *)
let field_mask = 0x3f

(* Insertion sort of [a.(0 .. len-1)]: a level has a few dozen candidates
   at most, and the scratch array past [len] holds stale entries. *)
let sort_prefix (a : int array) len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let mst_over ctx ~guf components =
  let n = List.length components in
  if n <= 1 then []
  else if n > field_mask || Ndp_graph.Union_find.capacity guf > field_mask + 1 then
    mst_over_generic ctx ~guf ~uf:(Ndp_graph.Union_find.create n) components
  else begin
    let arr = Array.of_list components in
    let best = { bu = -1; bv = -1; bw = max_int } in
    let cands = Context.scratch_cands ctx ~at_least:(n * (n - 1) / 2) in
    let k = ref 0 in
    let overflow = ref false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        best.bu <- -1;
        best.bv <- -1;
        best.bw <- max_int;
        min_pair_into ctx best arr.(i).members arr.(j).members;
        if best.bw lsr 38 <> 0 then overflow := true;
        cands.(!k) <-
          (((((best.bw lsl 6) lor i) lsl 6) lor j) lsl 12) lor (best.bu lsl 6) lor best.bv;
        incr k
      done
    done;
    if !overflow then mst_over_generic ctx ~guf ~uf:(Ndp_graph.Union_find.create n) components
    else begin
      sort_prefix cands !k;
      let uf = Context.scratch_mst ctx ~at_least:n in
      let edges = ref [] in
      for c = 0 to !k - 1 do
        let packed = cands.(c) in
        let v = packed land field_mask in
        let u = (packed lsr 6) land field_mask in
        let j = (packed lsr 12) land field_mask in
        let i = (packed lsr 18) land field_mask in
        let w = packed lsr 24 in
        if Ndp_graph.Union_find.union uf i j then
          if not (w = 0 || not (Ndp_graph.Union_find.union guf u v)) then
            edges := { Kruskal.u; v; weight = w } :: !edges
      done;
      !edges
    end
  end

let is_singleton n = function [ m ] -> m = n | _ -> false

let split (ctx : Context.t) ~store_node stmt env =
  let mesh = Context.mesh ctx in
  let items = Context.scratch_items ctx in
  let predictions = ref [] in
  let locate_item r =
    let loc = Location.locate ctx ~store_node r env in
    (match (loc.Location.predicted_hit, loc.Location.va) with
    | Some p, Some va -> predictions := (va, p) :: !predictions
    | _ -> ());
    let cur =
      match Hashtbl.find items loc.Location.node with l -> l | exception Not_found -> []
    in
    Hashtbl.replace items loc.Location.node (loc :: cur);
    loc
  in
  let edges = ref [] in
  let guf =
    if Mesh.size mesh = Ndp_graph.Union_find.capacity ctx.Context.scratch_guf then
      Context.scratch_guf ctx
    else Ndp_graph.Union_find.create (Mesh.size mesh)
  in
  (* Process one nested-set level: place every item, recurse into sub-sets,
     then connect the level's components with an MST. Returns the member
     node set of the completed level. *)
  let rec process_level ?(extra = []) (set : Ndp_ir.Nested_set.t) =
    (* The level's components in reverse order, identical singleton
       vertices deduplicated (Algorithm 1, line 12). *)
    let add acc members =
      match members with
      | [ n ] when List.exists (fun c -> is_singleton n c.members) acc -> acc
      | _ -> { members } :: acc
    in
    let add_item acc = function
      | Ndp_ir.Nested_set.Ref r -> add acc [ (locate_item r).Location.node ]
      | Ndp_ir.Nested_set.Const _ -> acc
      | Ndp_ir.Nested_set.Sub s -> add acc (process_level s)
    in
    let components = List.fold_left add_item [] set.Ndp_ir.Nested_set.items in
    let components = List.fold_left (fun acc n -> add acc [ n ]) components extra in
    edges := mst_over ctx ~guf components @ !edges;
    List.sort_uniq Int.compare (List.concat_map (fun c -> c.members) components)
  in
  let set =
    if ctx.options.Context.level_based then Ndp_ir.Stmt.nested stmt
    else
      (* Ablation: ignore priority levels, flattening all references. *)
      {
        Ndp_ir.Nested_set.items =
          List.map (fun r -> Ndp_ir.Nested_set.Ref r) (Ndp_ir.Stmt.inputs stmt);
        level_ops = Ndp_ir.Stmt.ops stmt;
        reassociable = true;
      }
  in
  let nodes = process_level ~extra:[ store_node ] set in
  let store =
    Option.map
      (fun va -> (va, Context.bytes_of ctx stmt.Ndp_ir.Stmt.lhs))
      (ctx.runtime_resolve stmt.Ndp_ir.Stmt.lhs env)
  in
  let edges = !edges in
  {
    edges;
    items_at = Hashtbl.fold (fun node locs acc -> (node, List.rev locs) :: acc) items [];
    store_node;
    store;
    nodes;
    est_movement = Kruskal.total_weight edges;
    predictions = List.rev !predictions;
  }

let unsplit t =
  let all_items = List.concat_map snd t.items_at in
  {
    t with
    edges = [];
    items_at = [ (t.store_node, all_items) ];
    nodes = [ t.store_node ];
  }

let default_movement (ctx : Context.t) ~store_node stmt env =
  let movement_of r =
    match ctx.runtime_resolve r env with
    | None -> 0
    | Some va -> Context.distance ctx store_node (Ndp_sim.Machine.home_node ctx.machine ~va)
  in
  List.fold_left (fun acc r -> acc + movement_of r) 0 (Ndp_ir.Stmt.inputs stmt)
