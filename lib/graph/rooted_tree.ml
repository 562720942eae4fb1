(* The trees rooted here are statement MSTs, a dozen edges at most, and
   one is built for every statement instance. So the tree is three small
   arrays in BFS order, and every lookup is a linear scan. *)
type t = {
  verts : int array; (* BFS order from the root, [verts.(0)] *)
  parents : int array; (* [parents.(i)]: parent of [verts.(i)], for i >= 1 *)
  weights : int array; (* [weights.(i)]: weight of that parent edge *)
}

(* Index of [v] among the first [len] entries of [verts], or -1. *)
let position verts len v =
  let rec go i = if i >= len then -1 else if verts.(i) = v then i else go (i + 1) in
  go 0

let of_edges ~root edges =
  let es = Array.of_list edges in
  let k = Array.length es in
  (* Directed entry [d] is edge [d/2] seen from its [u] end (even [d]) or
     from its [v] end (odd [d]). Sorted by (source, target, weight), the
     entries leaving a vertex list its neighbours in ascending order. *)
  let src d = if d land 1 = 0 then es.(d lsr 1).Kruskal.u else es.(d lsr 1).Kruskal.v in
  let dst d = if d land 1 = 0 then es.(d lsr 1).Kruskal.v else es.(d lsr 1).Kruskal.u in
  let weight d = es.(d lsr 1).Kruskal.weight in
  let entries = Array.init (2 * k) Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare (src a) (src b) in
      if c <> 0 then c
      else
        let c = Int.compare (dst a) (dst b) in
        if c <> 0 then c else Int.compare (weight a) (weight b))
    entries;
  let n = k + 1 in
  let verts = Array.make n root and parents = Array.make n (-1) and weights = Array.make n 0 in
  let count = ref 1 and head = ref 0 in
  while !head < !count do
    let u = verts.(!head) in
    incr head;
    for e = 0 to (2 * k) - 1 do
      let d = entries.(e) in
      if src d = u then begin
        let v = dst d in
        let pv = position verts !count v in
        if pv < 0 then begin
          verts.(!count) <- v;
          parents.(!count) <- u;
          weights.(!count) <- weight d;
          incr count
        end
        else begin
          let pu = position verts !count u in
          if pu > 0 && parents.(pu) = v then ()
          else if v = root && u <> root then ()
          else if not (u = root && pv > 0) then
            (* A visited neighbor that is not our parent means a cycle. *)
            invalid_arg "Rooted_tree.of_edges: edge set contains a cycle"
        end
      end
    done
  done;
  if !count <> n then invalid_arg "Rooted_tree.of_edges: edge set is not a tree reaching the root";
  { verts; parents; weights }

let root t = t.verts.(0)

(* A vertex's children are attached while it is expanded, in ascending
   order, so BFS order lists them ascending. *)
let children t v =
  let rec go i acc =
    if i < 1 then acc else go (i - 1) (if t.parents.(i) = v then t.verts.(i) :: acc else acc)
  in
  go (Array.length t.verts - 1) []

let parent t v =
  let i = position t.verts (Array.length t.verts) v in
  if i > 0 then Some t.parents.(i) else None

let vertices t = Array.to_list t.verts

let leaves t = List.filter (fun v -> children t v = []) (vertices t)

let edge_weight t v =
  let i = position t.verts (Array.length t.verts) v in
  if i > 0 then t.weights.(i)
  else invalid_arg "Rooted_tree.edge_weight: root has no parent edge"

let postorder t =
  let rec walk v acc = v :: List.fold_right walk (children t v) acc in
  List.rev (walk (root t) [])

let rec depth t v =
  match parent t v with
  | None -> 0
  | Some p -> 1 + depth t p
