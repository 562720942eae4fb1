module Task = Ndp_sim.Task
module Dep = Ndp_ir.Dependence

type meta = { group : int; default_node : int; inst : Dep.instance }

type stmt_report = {
  r_group : int;
  est_movement : int;
  default_est : int;
  parallelism : int;
  task_count : int;
  offload_mix : Task.op_mix;
  syncs : int;
}

type compiled = {
  tasks : (Task.t * int) list;
  reports : stmt_report list;
  sync_count : int;
  predictions : (int * bool) list;
  roots : (int * int) list;
  sync_arcs : (int * int) list;
}

(* The root of the statement MST is the node the default placement
   assigned the iteration to (Figure 8: node i computes the final
   combine); the result's write-back still goes to its home bank, which
   the engine models in the store path. Keeping the final subcomputation
   on the assigned node preserves the default's iteration-level balance —
   rooting at the LHS home bank would serialize the 8 statements sharing
   an output cache line onto one node. *)
let store_node_of (_ctx : Context.t) meta = meta.default_node

let chunk list size =
  if size <= 0 then invalid_arg "Window.chunk: size must be positive";
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 list

(* Splitting must clear this margin over the default before it is worth
   doing (see the comment at the use site in [compile]); the analytic
   estimator applies the identical rule so the two agree statement by
   statement. *)
let margin_num, margin_den = (7, 10)

let margin_ruled ~default_est est =
  if est * margin_den < default_est * margin_num then est else default_est

let compile ?deps ?fusion (ctx : Context.t) metas =
  Context.clear_reuse ctx;
  (* Task ids allocated during this compile form the dense range
     [id_base, ctx.next_task); every per-task table below is an array
     indexed by [id - id_base] instead of a hashtable — this function is
     the compiler's hot path. *)
  let id_base = ctx.Context.next_task in
  let per_stmt =
    List.mapi
      (fun i meta ->
        let stmt = meta.inst.Dep.stmt in
        let env = meta.inst.Dep.env in
        let fslot =
          match fusion with Some f when i < Array.length f -> f.(i) | Some _ | None -> None
        in
        let store_node =
          match fslot with Some s -> s.Fusion.f_node | None -> store_node_of ctx meta
        in
        let split = Splitter.split ctx ~store_node stmt env in
        let default_est = Splitter.default_movement ctx ~store_node stmt env in
        (* Splitting must satisfy the minimum-data-movement requirement:
           when the MST saves nothing over fetching every operand to the
           store node (tiny network footprints — the paper's Cholesky/LU
           case), the statement executes whole on its store node. *)
        (* The estimate counts links only; synchronization and partial-
           result forwarding are not in it, so splitting must clear a
           margin before it is worth doing. *)
        let split =
          match fslot with
          | Some _ ->
            (* A fused member executes whole on the chain's node — one
               Kruskal vertex — so the elided intermediate is in the same
               L1 its consumer loads from. *)
            { (Splitter.unsplit split) with Splitter.est_movement = default_est }
          | None ->
            if split.Splitter.est_movement * margin_den < default_est * margin_num then split
            else { (Splitter.unsplit split) with Splitter.est_movement = default_est }
        in
        (* Repair before anything reads task placements: the cross-node
           arc filter and the variable2node propagation below must see the
           post-remap nodes or sync arcs would be elided against stale
           placements. *)
        let sched = Schedule.repair ctx (Schedule.schedule ctx ~group:meta.group split stmt env) in
        let sched =
          match fslot with
          | Some { Fusion.f_elide = true; _ } ->
            {
              sched with
              Schedule.tasks =
                List.map
                  (fun (t : Task.t) ->
                    if t.Task.id = sched.Schedule.root_task && t.Task.store <> None then
                      { t with Task.store_local = true }
                    else t)
                  sched.Schedule.tasks;
            }
          | _ -> sched
        in
        Context.advance_statement ctx;
        (* Propagate this statement's L1 placements to later statements in
           the window (the variable2node map of Algorithm 1, line 37). *)
        List.iter (fun (line, node) -> Context.note_cached ctx ~line ~node) sched.Schedule.placements;
        (match split.Splitter.store with
        | Some (va, _) ->
          Context.note_cached ctx ~line:(Location.line_of ctx va) ~node:store_node
        | None -> ());
        (meta, split, sched, default_est))
      metas
  in
  let num_tasks = ctx.Context.next_task - id_base in
  (* Inter-statement dependences (flow/anti/output, including conservative
     may-deps) become arcs from the producer's final task to the consuming
     statement's task graph. [deps], when provided, is the pre-computed
     analysis of exactly these instances (indices local to [metas]) — the
     window-size preprocessing derives it once per nest sample and slices
     it per chunk instead of re-running the analysis per candidate. *)
  let deps =
    match deps with
    | Some d -> d
    | None -> Dep.analyze ctx.compiler_resolve (List.map (fun m -> m.inst) metas)
  in
  let arr = Array.of_list per_stmt in
  let inter_arcs =
    List.filter_map
      (fun (d : Dep.dep) ->
        let _, _, src_sched, _ = arr.(d.Dep.src) in
        let _, _, dst_sched, _ = arr.(d.Dep.dst) in
        let producer = src_sched.Schedule.root_task in
        let consumer = dst_sched.Schedule.root_task in
        if producer = consumer then None else Some (producer, consumer, d.Dep.kind))
      deps
  in
  let join_arcs = List.concat_map (fun (_, _, s, _) -> s.Schedule.join_arcs) per_stmt in
  (* A producer and consumer on the same node are ordered by the node's
     program; only cross-node waits need a synchronization handshake. *)
  let node_of_task = Array.make (max 1 num_tasks) (-1) in
  List.iter
    (fun (_, _, s, _) ->
      List.iter
        (fun (t : Task.t) -> node_of_task.(t.Task.id - id_base) <- t.Task.node)
        s.Schedule.tasks)
    per_stmt;
  let cross_node (p, c) = node_of_task.(p - id_base) <> node_of_task.(c - id_base) in
  (* Dropping a same-node arc is only sound if the node really does run the
     producer first. The level-major emission below orders a node's program
     by level, so the dropped arc must still raise the consumer's level
     above the producer's — otherwise a consumer with a shallower task tree
     would be emitted (and executed) before its producer. *)
  let same_node_parents = Array.make (max 1 num_tasks) [] in
  List.iter
    (fun (p, c, _) ->
      if not (cross_node (p, c)) then
        same_node_parents.(c - id_base) <- p :: same_node_parents.(c - id_base))
    inter_arcs;
  let all_arcs =
    List.filter cross_node (join_arcs @ List.map (fun (p, c, _) -> (p, c)) inter_arcs)
  in
  let surviving = Sync_min.minimize ~enabled:ctx.options.Context.sync_minimize all_arcs in
  let sync_of = Sync_min.syncs_per_consumer surviving in
  (* Inter-statement arcs that survive also order execution: attach them as
     Result operands (flow deps carry a cache line; anti/output deps carry
     a token). *)
  let extra_operands = Array.make (max 1 num_tasks) [] in
  List.iter
    (fun (p, c, kind) ->
      if List.mem (p, c) surviving then begin
        let bytes = match kind with Dep.Flow | Dep.Anti | Dep.Output -> 8 in
        extra_operands.(c - id_base) <-
          Task.Result { producer = p; bytes } :: extra_operands.(c - id_base)
      end)
    inter_arcs;
  let finalize (task : Task.t) =
    let extras = extra_operands.(task.Task.id - id_base) in
    let syncs = Option.value (Hashtbl.find_opt sync_of task.Task.id) ~default:0 in
    match extras with
    | [] -> if syncs = task.Task.syncs then task else { task with Task.syncs }
    | _ -> { task with Task.operands = task.Task.operands @ extras; Task.syncs }
  in
  let tasks =
    Array.of_list
      (List.concat_map (fun (_, _, s, _) -> List.map finalize s.Schedule.tasks) per_stmt)
  in
  (* Emit the window level-by-level (all dependency-free subcomputations
     first), so a node's generated program never blocks a ready
     subcomputation behind one that is still waiting for remote partial
     results — the interleaving the paper's code generator produces
     (Figure 8). The sort is stable, preserving producer-before-consumer
     within a level chain. *)
  let level_of = Array.make (max 1 num_tasks) 0 in
  let leveled =
    Array.map
      (fun (t : Task.t) ->
        let producer_level = function
          | Task.Result { producer; bytes = _ } -> level_of.(producer - id_base)
          | Task.Load _ -> 0
        in
        let operand_floor =
          List.fold_left (fun acc op -> max acc (producer_level op)) 0 t.Task.operands
        in
        (* Same-node arcs have no Result operand; their ordering obligation
           lives entirely in this level assignment. *)
        let parent_floor =
          List.fold_left
            (fun acc p -> max acc level_of.(p - id_base))
            0
            same_node_parents.(t.Task.id - id_base)
        in
        let level = 1 + max operand_floor parent_floor in
        level_of.(t.Task.id - id_base) <- level;
        (t, level))
      tasks
  in
  Array.stable_sort (fun ((_ : Task.t), la) ((_ : Task.t), lb) -> compare la lb) leveled;
  let tasks = Array.to_list leveled in
  let group_syncs = Hashtbl.create 16 in
  List.iter
    (fun ((t : Task.t), _) ->
      if t.Task.syncs > 0 then
        Hashtbl.replace group_syncs t.Task.group
          (Option.value (Hashtbl.find_opt group_syncs t.Task.group) ~default:0 + t.Task.syncs))
    tasks;
  let reports =
    List.map
      (fun (meta, split, sched, default_est) ->
        {
          r_group = meta.group;
          est_movement = split.Splitter.est_movement;
          default_est;
          parallelism = sched.Schedule.parallelism;
          task_count = List.length sched.Schedule.tasks;
          offload_mix = sched.Schedule.offload_mix;
          syncs = Option.value (Hashtbl.find_opt group_syncs meta.group) ~default:0;
        })
      per_stmt
  in
  let predictions = List.concat_map (fun (_, sp, _, _) -> sp.Splitter.predictions) per_stmt in
  let roots =
    List.map (fun (meta, _, sched, _) -> (meta.group, sched.Schedule.root_task)) per_stmt
  in
  { tasks; reports; sync_count = List.length surviving; predictions; roots; sync_arcs = surviving }

(* Preprocessing objective: estimated links traversed plus the cost of the
   synchronizations the window structure induces, expressed in links
   (sync handshake cycles over per-link cycles). Movement alone is
   monotone in the window size; synchronizations are what push back. *)
let sync_links_of (ctx : Context.t) =
  let c = ctx.Context.config in
  max 1 (c.Ndp_sim.Config.sync_cycles / c.Ndp_sim.Config.hop_cycles) + 2

let estimate_of_compiled ~sync_links (compiled : compiled) =
  let movement = List.fold_left (fun acc r -> acc + r.est_movement) 0 compiled.reports in
  movement + (sync_links * compiled.sync_count)

(* The sampled estimate: the sample's total movement plus sync cost when
   every chunk of [window] instances is actually compiled, on a forked
   context. The nest sample's dependence analysis is computed once
   ([all_deps], indices into [sample]) and sliced per chunk: a dependence
   whose endpoints both fall inside a chunk is exactly what analyzing the
   chunk alone would find (the analysis is pairwise), so re-deriving it
   per candidate window size only repeats work. *)
let estimate_sliced (ctx : Context.t) sample all_deps ~window =
  let ctx = Context.fork_for_estimate ctx in
  let sync_links = sync_links_of ctx in
  let n = Array.length sample in
  let rec go lo acc =
    if lo >= n then acc
    else begin
      let hi = min n (lo + window) in
      let metas = Array.to_list (Array.sub sample lo (hi - lo)) in
      let deps =
        List.filter_map
          (fun (d : Dep.dep) ->
            if d.Dep.src >= lo && d.Dep.dst < hi then
              Some { d with Dep.src = d.Dep.src - lo; Dep.dst = d.Dep.dst - lo }
            else None)
          all_deps
      in
      go hi (acc + estimate_of_compiled ~sync_links (compile ~deps ctx metas))
    end
  in
  go 0 0

(* The preprocessing estimates movement on a prefix of the instance stream;
   loop iterations are statistically uniform, so a few hundred instances
   characterize the nest. *)
let preprocessing_sample = 256

(* A nest whose references are all indirect gives the movement estimate
   nothing to discriminate on: every candidate size scores the inspector
   fallback identically, so sizing is pure waste. Such nests
   run at window size 1 (and lint surfaces a W402). *)
let all_non_affine metas =
  metas <> []
  && List.for_all
       (fun m ->
         let stmt = m.inst.Dep.stmt in
         List.for_all
           (fun r -> not (Ndp_ir.Reference.analyzable r))
           (Ndp_ir.Stmt.output stmt :: Ndp_ir.Stmt.inputs stmt))
       metas

(* ------------------------------------------------------------------ *)
(* Analytic (closed-form) movement estimation.

   [compile] prices a candidate window by actually building it: splitting,
   scheduling, repairing and sync-minimizing every statement of the sample
   once per candidate size. The analytic path prices the same objective
   from one walk over the sample plus integer arithmetic per candidate:
   movement comes from the splitter's per-statement estimates under the
   two reuse regimes (window captures the providers / window cut them
   off), synchronization from the dependence pairs whose endpoints share a
   chunk. What it forgoes — schedule placements landing on exec nodes,
   join arcs, transitive sync reduction — are second-order against the
   movement term, and the chooser falls back to the sampled estimator
   whenever the analytic curve is too flat to call the winner. *)

type analytic = { a_est : int array; a_syncs : int }

(* Mirror of [compile]'s variable2node propagation without running the
   scheduler. The schedule consumes a lone data item at its parent
   combine — almost always the root, which is pinned to the store node —
   and runs a multi-item combine on the MST vertex itself, so lines land
   at the store node except where a vertex holds two or more items. The
   margin rule is applied first: a collapsed statement notes everything at
   its store node, exactly like [Schedule.single_node_schedule]. *)
let note_analytic (ctx : Context.t) ~store_node ~kept (split : Splitter.t) =
  List.iter
    (fun (node, locs) ->
      let target =
        if kept && node <> store_node && List.length locs >= 2 then node else store_node
      in
      List.iter
        (fun (loc : Location.t) ->
          match loc.Location.va with
          | Some va -> Context.note_cached ctx ~line:(Location.line_of ctx va) ~node:target
          | None -> ())
        locs)
    split.Splitter.items_at;
  match split.Splitter.store with
  | Some (va, _) -> Context.note_cached ctx ~line:(Location.line_of ctx va) ~node:store_node
  | None -> ()

let analytic_of (ctx : Context.t) metas ~window =
  if window <= 0 then invalid_arg "Window.analytic_of: window must be positive";
  let ctx = Context.fork_for_estimate ctx in
  let arr = Array.of_list metas in
  let n = Array.length arr in
  let a_est = Array.make (max 1 n) 0 in
  let syncs = ref 0 in
  let rec go lo =
    if lo < n then begin
      let hi = min n (lo + window) in
      Context.clear_reuse ctx;
      for i = lo to hi - 1 do
        let m = arr.(i) in
        let stmt = m.inst.Dep.stmt and env = m.inst.Dep.env in
        let store_node = store_node_of ctx m in
        let split = Splitter.split ctx ~store_node stmt env in
        let default_est = Splitter.default_movement ctx ~store_node stmt env in
        let kept = split.Splitter.est_movement * margin_den < default_est * margin_num in
        a_est.(i) <- (if kept then split.Splitter.est_movement else default_est);
        Context.advance_statement ctx;
        note_analytic ctx ~store_node ~kept split
      done;
      (* In-chunk dependences whose endpoints sit on different nodes each
         cost one handshake; duplicate (producer, consumer) pairs collapse
         like [compile]'s arc set does. *)
      let pairs = Hashtbl.create 16 in
      List.iter
        (fun (d : Dep.dep) ->
          let src = lo + d.Dep.src and dst = lo + d.Dep.dst in
          if arr.(src).default_node <> arr.(dst).default_node && not (Hashtbl.mem pairs (src, dst))
          then begin
            Hashtbl.add pairs (src, dst) ();
            incr syncs
          end)
        (Dep.analyze ctx.Context.compiler_resolve (List.init (hi - lo) (fun k -> arr.(lo + k).inst)));
      go hi
    end
  in
  go 0;
  { a_est = (if n = 0 then [||] else a_est); a_syncs = !syncs }

(* Candidates whose analytic total lands within this fraction of the
   analytic minimum are re-scored with the sampled estimator; an
   uncontested analytic winner skips sampling entirely. *)
let analytic_tie_margin = 0.10

let choose_size_analytic ?pool (ctx : Context.t) metas ~max:max_size =
  if max_size < 1 || metas = [] || all_non_affine metas then 1
  else begin
    let sample = Array.of_list (List.filteri (fun i _ -> i < preprocessing_sample) metas) in
    let n = Array.length sample in
    (* Both the analytic sync count and the sampled tie-breaker read only
       pairs inside one chunk of at most [max_size] instances. *)
    let all_deps =
      Dep.analyze ~band:max_size ctx.Context.compiler_resolve
        (Array.to_list (Array.map (fun m -> m.inst) sample))
    in
    (* One un-chunked walk over the sample decomposes every candidate
       size. Statement [i]'s estimate depends on chunking only through
       which in-window providers survive the chunk boundary: [est_full]
       prices it with its providers visible, [est_none] with the reuse map
       cold. Providers are read straight off the variable2node stamps
       ([note_cached] records the noting statement's clock, so stamp-1 is
       the provider's sample index); entries within [reuse_horizon] can
       never have been capacity-evicted, so the provider set is exact. *)
    let ectx = Context.fork_for_estimate ctx in
    Context.clear_reuse ectx;
    let nctx = { ectx with Context.options = { ectx.Context.options with Context.reuse_aware = false } } in
    let est_full = Array.make (max 1 n) 0 in
    let est_none = Array.make (max 1 n) 0 in
    let providers = Array.make (max 1 n) [] in
    for i = 0 to n - 1 do
      let m = sample.(i) in
      let stmt = m.inst.Dep.stmt and env = m.inst.Dep.env in
      let store_node = store_node_of ectx m in
      let provs = ref [] in
      List.iter
        (fun r ->
          match ectx.Context.compiler_resolve r env with
          | Some va -> (
            let line = Location.line_of ectx va in
            match Hashtbl.find_opt ectx.Context.var2node line with
            | Some (_, stamp) when ectx.Context.stmt_clock - stamp <= Context.reuse_horizon ->
              let p = stamp - 1 in
              if p >= 0 && not (List.mem p !provs) then provs := p :: !provs
            | _ -> ())
          | None -> ())
        (Ndp_ir.Stmt.inputs stmt);
      providers.(i) <- !provs;
      let split = Splitter.split ectx ~store_node stmt env in
      let default_est = Splitter.default_movement ectx ~store_node stmt env in
      let kept = split.Splitter.est_movement * margin_den < default_est * margin_num in
      est_full.(i) <- (if kept then split.Splitter.est_movement else default_est);
      (* [default_movement] never consults the reuse map, so the default
         estimate is shared between the two regimes. *)
      est_none.(i) <-
        (if !provs = [] then est_full.(i)
         else margin_ruled ~default_est (Splitter.split nctx ~store_node stmt env).Splitter.est_movement);
      Context.advance_statement ectx;
      note_analytic ectx ~store_node ~kept split
    done;
    let sync_links = sync_links_of ectx in
    let total w =
      let movement = ref 0 in
      for i = 0 to n - 1 do
        let captured = providers.(i) <> [] && List.for_all (fun p -> p / w = i / w) providers.(i) in
        movement := !movement + (if providers.(i) = [] || captured then est_full.(i) else est_none.(i))
      done;
      let pairs = Hashtbl.create 64 in
      let syncs = ref 0 in
      List.iter
        (fun (d : Dep.dep) ->
          if
            d.Dep.src / w = d.Dep.dst / w
            && sample.(d.Dep.src).default_node <> sample.(d.Dep.dst).default_node
            && not (Hashtbl.mem pairs (d.Dep.src, d.Dep.dst))
          then begin
            Hashtbl.add pairs (d.Dep.src, d.Dep.dst) ();
            incr syncs
          end)
        all_deps;
      !movement + (sync_links * !syncs)
    in
    let candidates = List.init max_size (fun k -> k + 1) in
    let totals = List.map total candidates in
    let best = List.fold_left min (List.hd totals) totals in
    let cut = float_of_int best *. (1. +. analytic_tie_margin) in
    let ties =
      List.filteri (fun k _ -> float_of_int (List.nth totals k) <= cut) candidates
    in
    match ties with
    | [ w ] -> w
    | ties ->
      (* Too close to call analytically: re-score only the contested
         candidates with the sampled estimator; among equal estimates the
         smallest window wins. The walk above already resolved (and
         page-allocated) every address the sample reaches, so pooled
         evaluation only reads shared machine state. *)
      let estimate w = estimate_sliced ctx sample all_deps ~window:w in
      let estimates =
        match pool with
        | Some p -> Ndp_prelude.Pool.parallel_map p estimate ties
        | None -> List.map estimate ties
      in
      let best_w, _ =
        List.fold_left2
          (fun (best_w, best_m) w m -> if m < best_m then (w, m) else (best_w, best_m))
          (List.hd ties, List.hd estimates)
          (List.tl ties) (List.tl estimates)
      in
      best_w
  end
