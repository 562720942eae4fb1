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

(* The per-item helpers below are top-level recursions rather than
   closures over the statement: they run for every item of every
   statement instance, and a local closure is an allocation per call. *)

(* [Load] operands for [locs], in order, in front of [tail]; an item whose
   address resolves neither at compile time nor at run time loads
   nothing. *)
let rec load_operands (ctx : Context.t) env tail = function
  | [] -> tail
  | (loc : Location.t) :: rest -> (
    let va =
      match loc.Location.va with
      | Some _ as va -> va
      | None -> ctx.runtime_resolve loc.Location.ref_ env
    in
    let rest = load_operands ctx env tail rest in
    match va with
    | Some va -> Task.Load { va; bytes = loc.Location.bytes } :: rest
    | None -> rest)

let rec stall_cycles (ctx : Context.t) ~node acc = function
  | [] -> acc
  | (loc : Location.t) :: rest ->
    let c = ctx.Context.config in
    let latency =
      if loc.Location.in_l1 && loc.Location.node = node then c.Ndp_sim.Config.l1_hit_cycles
      else begin
        let travel =
          2 * Context.distance ctx node loc.Location.node * c.Ndp_sim.Config.hop_cycles
        in
        let service =
          match loc.Location.predicted_hit with
          | Some false -> c.Ndp_sim.Config.ddr_cycles
          | Some true | None -> c.Ndp_sim.Config.l2_hit_cycles
        in
        travel + service + c.Ndp_sim.Config.l1_hit_cycles
      end
    in
    stall_cycles ctx ~node (acc + latency) rest

(* Expected core occupancy of running a combine at [node] — the same
   formula the engine charges, evaluated with the compiler's location and
   hit/miss knowledge, so the balance veto tracks reality. *)
let expected_occupancy (ctx : Context.t) ~node ~ops_cost ~items =
  let c = ctx.Context.config in
  let stall = stall_cycles ctx ~node 0 items in
  (List.length items * c.Ndp_sim.Config.load_issue_cycles)
  + (ops_cost * c.Ndp_sim.Config.op_cycles)
  + int_of_float ((1.0 -. c.Ndp_sim.Config.mlp_overlap) *. float_of_int stall)

(* The alternatives to [vertex] as exec node, gathered into
   [ctx.scratch_alts.(0 .. n-1)]; returns [n]. "Skips this node and moves
   to the next one" (4.5): the result travels toward the parent anyway,
   so every node on the mesh route to the parent (the shared per-mesh
   route table) can host the combine without adding a single link of
   movement; the children are equally free. Each node once, ascending
   through the context's node marks, insertion-sorted stably by load. *)
let alternatives (ctx : Context.t) tree vertex children =
  let marks = ctx.Context.scratch_marks and alts = ctx.Context.scratch_alts in
  let loads = ctx.Context.loads in
  (match Tree.parent tree vertex with
  | None -> ()
  | Some parent ->
    let route = Ndp_noc.Mesh.route_nodes (Context.mesh ctx) ~src:vertex ~dst:parent in
    for i = 0 to Array.length route - 1 do
      marks.(route.(i)) <- true
    done);
  List.iter (fun c -> marks.(c) <- true) children;
  let n = ref 0 in
  for node = 0 to Array.length marks - 1 do
    if marks.(node) then begin
      marks.(node) <- false;
      let j = ref !n in
      while !j > 0 && loads.(alts.(!j - 1)) > loads.(node) do
        alts.(!j) <- alts.(!j - 1);
        decr j
      done;
      alts.(!j) <- node;
      incr n
    end
  done;
  !n

(* Pick the node that executes a combine among the MST vertex itself (the
   minimum-movement choice) and the [n] gathered alternatives, skipping
   overloaded nodes per the 10% rule: the first balanced candidate, else
   the first with the least load plus occupancy, priced in one pass that
   stops at the first balanced one. The root combine is pinned to the
   store node and never comes here. Under repair, healthy hosts are
   preferred outright; if every candidate is avoided the final repair
   sweep will remap the task. *)
let choose_exec_node (ctx : Context.t) ~preferred ~alternatives:n ~ops_cost ~items =
  let node k = if k = 0 then preferred else ctx.Context.scratch_alts.(k - 1) in
  let rec any_healthy k = k <= n && ((not (Context.avoided ctx (node k))) || any_healthy (k + 1)) in
  let healthy_only = ctx.Context.repair <> None && any_healthy 0 in
  let rec pick k best best_cost =
    if k > n then (best, best_cost)
    else begin
      let v = node k in
      if healthy_only && Context.avoided ctx v then pick (k + 1) best best_cost
      else begin
        let o = expected_occupancy ctx ~node:v ~ops_cost ~items in
        if Context.balanced ctx ~node:v ~cost:o then (v, o)
        else if best < 0 || ctx.Context.loads.(v) + o < ctx.Context.loads.(best) + best_cost then
          pick (k + 1) v o
        else pick (k + 1) best best_cost
      end
    end
  in
  pick 0 (-1) 0

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

(* The first [k] ops of the pool, which keeps the rest. *)
let rec draw_into st k acc =
  match st.ops_pool with
  | op :: rest when k > 0 ->
    st.ops_pool <- rest;
    draw_into st (k - 1) (op :: acc)
  | _ -> List.rev acc

let draw st k = draw_into st k []

(* Every op left: the final combine's. *)
let draw_all st =
  let ops = st.ops_pool in
  st.ops_pool <- [];
  ops

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
  let operands = load_operands ctx st.env [] locs in
  let final_ops = draw_all st in
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

let rec deferred_locs = function
  | [] -> []
  | Deferred loc :: rest -> loc :: deferred_locs rest
  | From_task _ :: rest -> deferred_locs rest

let rec result_operands = function
  | [] -> []
  | From_task { task; bytes; level = _ } :: rest ->
    Task.Result { producer = task; bytes } :: result_operands rest
  | Deferred _ :: rest -> result_operands rest

let rec producer_level acc = function
  | [] -> acc
  | From_task { level; _ } :: rest -> producer_level (max acc level) rest
  | Deferred _ :: rest -> producer_level acc rest

(* Schedule the subtree under [vertex], children first. [bytes] is the
   size of a forwarded partial result: a single scalar, not a line. *)
let rec visit st tree ~bytes vertex =
  let ctx = st.ctx and env = st.env and split = st.split in
  let children = Tree.children tree vertex in
  let child_results = visit_all st tree ~bytes children in
  let locs = items_at vertex split.Splitter.items_at in
  let is_root = vertex = split.Splitter.store_node in
  let deferred = deferred_locs child_results in
  let result_ops = result_operands child_results in
  (* Own loads, then the deferred children's, then the partial results. *)
  let operands = load_operands ctx env (load_operands ctx env result_ops deferred) locs in
  let inputs = List.length operands in
  (* Every item this vertex consumes, its own first. *)
  let consumed = match deferred with [] -> locs | _ -> locs @ deferred in
  if (not is_root) && inputs = 1 && result_ops = [] then begin
    (* A lone data item: no computation here; the parent fetches it
       directly (the leaf-node case of the MST walk). *)
    match consumed with
    | [ loc ] -> Deferred loc
    | _ -> assert false
  end
  else begin
    let ops = if is_root then draw_all st else draw st (inputs - 1) in
    let ops_cost = Task.cost_of_ops ops in
    let exec, bcost =
      if is_root then (vertex, expected_occupancy ctx ~node:vertex ~ops_cost ~items:consumed)
      else
        choose_exec_node ctx ~preferred:vertex
          ~alternatives:(alternatives ctx tree vertex children)
          ~ops_cost ~items:consumed
    in
    let level = 1 + producer_level 0 child_results in
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

and visit_all st tree ~bytes = function
  | [] -> []
  | v :: rest ->
    let r = visit st tree ~bytes v in
    r :: visit_all st tree ~bytes rest

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
