module Task = Ndp_sim.Task
module Tree = Ndp_graph.Rooted_tree

type t = {
  tasks : Task.t list;
  root_task : int;
  join_arcs : (int * int) list;
  parallelism : int;
  offload_mix : Task.op_mix;
  placements : (int * int) list;
}

(* What a child subtree hands to its parent: either a finished task whose
   result travels up, or a single data item the parent loads itself. *)
type upward =
  | From_task of { task : int; bytes : int; level : int }
  | Deferred of Location.t

let take k list =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go k [] list

let load_operand (ctx : Context.t) env (loc : Location.t) =
  let va =
    match loc.Location.va with
    | Some va -> Some va
    | None -> ctx.runtime_resolve loc.Location.ref_ env
  in
  Option.map (fun va -> Task.Load { va; bytes = loc.Location.bytes }) va

(* Pick the node that executes a combine: the MST parent node first (the
   minimum-movement choice), then its children, skipping overloaded nodes
   per the 10% rule. The root combine is pinned to the store node. *)
(* Expected core occupancy of running a combine at [node] — the same
   formula the engine charges, evaluated with the compiler's location and
   hit/miss knowledge, so the balance veto tracks reality. *)
let expected_occupancy (ctx : Context.t) ~node ~ops_cost ~items =
  let c = ctx.Context.config in
  let latency (loc : Location.t) =
    if loc.Location.in_l1 && loc.Location.node = node then c.Ndp_sim.Config.l1_hit_cycles
    else begin
      let travel = 2 * Context.distance ctx node loc.Location.node * c.Ndp_sim.Config.hop_cycles in
      let service =
        match loc.Location.predicted_hit with
        | Some false -> c.Ndp_sim.Config.ddr_cycles
        | Some true | None -> c.Ndp_sim.Config.l2_hit_cycles
      in
      travel + service + c.Ndp_sim.Config.l1_hit_cycles
    end
  in
  let stall = List.fold_left (fun acc l -> acc + latency l) 0 items in
  (List.length items * c.Ndp_sim.Config.load_issue_cycles)
  + (ops_cost * c.Ndp_sim.Config.op_cycles)
  + int_of_float ((1.0 -. c.Ndp_sim.Config.mlp_overlap) *. float_of_int stall)

let choose_exec_node (ctx : Context.t) ~pinned ~preferred ~alternatives ~ops_cost ~items =
  let occ node = expected_occupancy ctx ~node ~ops_cost ~items in
  if pinned then (preferred, occ preferred)
  else begin
    let candidates =
      preferred
      :: List.sort (fun a b -> compare ctx.Context.loads.(a) ctx.Context.loads.(b)) alternatives
    in
    (* Under repair, prefer healthy hosts outright; if every candidate is
       avoided the final repair sweep will remap the task. *)
    let candidates =
      match List.filter (fun n -> not (Context.avoided ctx n)) candidates with
      | [] -> candidates
      | healthy -> healthy
    in
    (* Occupancy is pure in the candidate, so price each one once: the
       balance scan and the fallback minimum below both read the cache
       instead of re-walking the item list per comparison. *)
    let priced = List.map (fun n -> (n, occ n)) candidates in
    match List.find_opt (fun (n, o) -> Context.balanced ctx ~node:n ~cost:o) priced with
    | Some hit -> hit
    | None ->
      List.fold_left
        (fun ((bn, bo) as best) ((n, o) as cand) ->
          if ctx.Context.loads.(n) + o < ctx.Context.loads.(bn) + bo then cand else best)
        (List.hd priced) priced
  end

(* The state of one [schedule] call, in one record rather than a ref and
   a closure per accumulator: this runs once per statement instance. *)
type state = {
  ctx : Context.t;
  group : int;
  split : Splitter.t;
  env : Ndp_ir.Env.t;
  mutable ops_pool : Ndp_ir.Op.t list;
  mutable tasks : Task.t list; (* newest first *)
  mutable levels : int list; (* the level of each task in [tasks] *)
  mutable join_arcs : (int * int) list; (* newest first *)
  mutable placements : (int * int) list;
  mutable offload : Task.op_mix;
}

let draw st k =
  let taken, rest = take k st.ops_pool in
  st.ops_pool <- rest;
  taken

let rec items_at node = function
  | [] -> []
  | (n, locs) :: rest -> if n = node then locs else items_at node rest

let rec note_placements st exec = function
  | [] -> ()
  | (loc : Location.t) :: rest ->
    (match loc.Location.va with
    | Some va -> st.placements <- (Location.line_of st.ctx va, exec) :: st.placements
    | None -> ());
    note_placements st exec rest

let emit st ~node ~ops ~operands ~store ~label ~level ~bcost =
  let id = Context.fresh_task_id st.ctx in
  let task = Task.make ~id ~group:st.group ~node ~ops ~operands ?store ~label () in
  st.tasks <- task :: st.tasks;
  Context.add_load st.ctx ~node ~cost:(max 1 bcost);
  if node <> st.split.Splitter.store_node then st.offload <- Task.mix_add st.offload task.Task.mix;
  st.levels <- level :: st.levels;
  task

(* Degenerate case: the whole statement's data sits on one node. *)
let single_node_schedule st node : t =
  let ctx = st.ctx in
  let locs = items_at node st.split.Splitter.items_at in
  let operands = List.filter_map (load_operand ctx st.env) locs in
  let final_ops = draw st (List.length st.ops_pool) in
  let bcost = expected_occupancy ctx ~node ~ops_cost:(Task.cost_of_ops final_ops) ~items:locs in
  let task =
    emit st ~node ~ops:final_ops ~operands ~store:st.split.Splitter.store
      ~label:("g" ^ string_of_int st.group ^ ":final")
      ~level:1 ~bcost
  in
  note_placements st node locs;
  {
    tasks = List.rev st.tasks;
    root_task = task.Task.id;
    join_arcs = [];
    parallelism = 1;
    offload_mix = st.offload;
    placements = st.placements;
  }

(* Schedule the subtree under [vertex], children first. [bytes] is the
   size of a forwarded partial result: a single scalar, not a line. *)
let rec visit st tree ~bytes vertex =
  let ctx = st.ctx and env = st.env and split = st.split in
  let children = Tree.children tree vertex in
  let child_results = List.map (visit st tree ~bytes) children in
  let locs = items_at vertex split.Splitter.items_at in
  let is_root = vertex = split.Splitter.store_node in
  let local_loads = List.filter_map (load_operand ctx env) locs in
  let deferred_loads =
    List.filter_map
      (function Deferred loc -> load_operand ctx env loc | From_task _ -> None)
      child_results
  in
  let deferred_locs =
    List.filter_map (function Deferred loc -> Some loc | From_task _ -> None) child_results
  in
  let result_ops =
    List.filter_map
      (function
        | From_task { task; bytes; level = _ } -> Some (Task.Result { producer = task; bytes })
        | Deferred _ -> None)
      child_results
  in
  let inputs = List.length local_loads + List.length deferred_loads + List.length result_ops in
  (* Every item this vertex consumes, its own first. *)
  let consumed = match deferred_locs with [] -> locs | _ -> locs @ deferred_locs in
  if (not is_root) && inputs = 1 && result_ops = [] then begin
    (* A lone data item: no computation here; the parent fetches it
       directly (the leaf-node case of the MST walk). *)
    match consumed with
    | [ loc ] -> Deferred loc
    | _ -> assert false
  end
  else begin
    let ops = if is_root then draw st (List.length st.ops_pool) else draw st (max 0 (inputs - 1)) in
    let alternatives =
      (* "Skips this node and moves to the next one" (4.5): the result
         travels toward the parent anyway, so every node on the mesh
         route to the parent can host the combine without adding a
         single link of movement; the children are equally free. *)
      match Tree.parent tree vertex with
      | None -> List.sort_uniq compare children
      | Some parent ->
        (* The shared per-mesh route table; same node sequence
           [xy_route] yields, with no per-visit route allocation. *)
        let nodes = Ndp_noc.Mesh.route_nodes (Context.mesh ctx) ~src:vertex ~dst:parent in
        List.sort_uniq compare (Array.fold_right (fun n acc -> n :: acc) nodes children)
    in
    let exec, bcost =
      choose_exec_node ctx ~pinned:is_root ~preferred:vertex ~alternatives
        ~ops_cost:(Task.cost_of_ops ops) ~items:consumed
    in
    let level =
      let producer_level acc = function
        | From_task { level; _ } -> max acc level
        | Deferred _ -> acc
      in
      1 + List.fold_left producer_level 0 child_results
    in
    let operands = local_loads @ deferred_loads @ result_ops in
    let store = if is_root then split.Splitter.store else None in
    let label =
      if is_root then "g" ^ string_of_int st.group ^ ":final"
      else "g" ^ string_of_int st.group ^ ":sub@" ^ string_of_int exec
    in
    let task = emit st ~node:exec ~ops ~operands ~store ~label ~level ~bcost in
    note_placements st exec consumed;
    if List.length result_ops >= 2 then
      List.iter
        (function
          | Task.Result { producer; bytes = _ } ->
            st.join_arcs <- (producer, task.Task.id) :: st.join_arcs
          | Task.Load _ -> ())
        result_ops;
    From_task { task = task.Task.id; bytes; level }
  end

let schedule (ctx : Context.t) ~group (split : Splitter.t) stmt env : t =
  let st =
    {
      ctx;
      group;
      split;
      env;
      ops_pool = Ndp_ir.Stmt.ops stmt;
      tasks = [];
      levels = [];
      join_arcs = [];
      placements = [];
      offload = Task.zero_mix;
    }
  in
  if split.Splitter.edges = [] then single_node_schedule st split.Splitter.store_node
  else begin
    let tree = Tree.of_edges ~root:split.Splitter.store_node split.Splitter.edges in
    let bytes = Context.bytes_of ctx stmt.Ndp_ir.Stmt.lhs in
    (match visit st tree ~bytes split.Splitter.store_node with
    | From_task _ -> ()
    | Deferred _ -> assert false);
    (* The root combine is emitted last. *)
    let root_task =
      match st.tasks with
      | last :: _ -> last.Task.id
      | [] -> assert false
    in
    let parallelism =
      let max_level = List.fold_left max 1 st.levels in
      let counts = Array.make (max_level + 1) 0 in
      List.iter (fun l -> counts.(l) <- counts.(l) + 1) st.levels;
      Array.fold_left max 1 counts
    in
    {
      tasks = List.rev st.tasks;
      root_task;
      join_arcs = List.rev st.join_arcs;
      parallelism;
      offload_mix = st.offload;
      placements = st.placements;
    }
  end

(* Remap the schedule off the repair plan's avoided nodes. The balance
   veto already steers most combines to healthy hosts; this sweep catches
   the rest (the pinned store-node root, nodes hosting located data).
   Every avoided node maps to its nearest healthy node under the
   fault-aware distance, ties broken by lowest id — a pure function of the
   plan, so repaired schedules are identical across [--jobs] values. Must
   run before [Window.compile] derives cross-node arcs, so the sync
   structure is computed against the repaired placement. *)
let repair (ctx : Context.t) (sched : t) =
  match ctx.Context.repair with
  | None -> sched
  | Some plan ->
    if Ndp_fault.Plan.avoided_nodes plan = [] then sched
    else begin
      let n = Ndp_noc.Mesh.size (Context.mesh ctx) in
      let substitute =
        Array.init n (fun node ->
            if not (Ndp_fault.Plan.avoided plan node) then node
            else begin
              let best = ref node and best_d = ref max_int in
              for cand = 0 to n - 1 do
                if not (Ndp_fault.Plan.avoided plan cand) then begin
                  let d = Context.distance ctx node cand in
                  if d < !best_d then begin
                    best := cand;
                    best_d := d
                  end
                end
              done;
              !best
            end)
      in
      let remap_task (t : Task.t) =
        let node = substitute.(t.Task.node) in
        if node = t.Task.node then t
        else begin
          ctx.Context.remapped_tasks <- ctx.Context.remapped_tasks + 1;
          { t with Task.node }
        end
      in
      {
        sched with
        tasks = List.map remap_task sched.tasks;
        placements =
          List.map (fun (line, node) -> (line, substitute.(node))) sched.placements;
      }
    end
