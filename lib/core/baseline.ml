module Mesh = Ndp_noc.Mesh
module Task = Ndp_sim.Task

let home (ctx : Context.t) va = Ndp_sim.Machine.home_node ctx.machine ~va

(* Profile cost of running an iteration on a node: total distance to the
   home of every reference it touches (the LLC-locality view). [distance]
   is the context's under a repair plan, so faulted links look expensive
   here too. The assignment below computes these costs regrouped by home
   node, so the per-(iteration, candidate) walk only lives in this
   comment. *)

let assign_iterations (ctx : Context.t) nest iterations =
  let mesh = Context.mesh ctx in
  let num_nodes = Mesh.size mesh in
  let iters = Array.of_list iterations in
  (* Chunk one sweep of the iteration space and repeat the assignment for
     the remaining sweeps: each core owns the same iterations of every
     sweep, as an OpenMP-style static schedule would. *)
  let period = max 1 (Ndp_ir.Loop.base_trip_count nest) in
  let iters = Array.sub iters 0 (min period (Array.length iters)) in
  let trips = Array.length iters in
  let stmt_refs =
    Array.of_list
      (List.map
         (fun stmt -> Ndp_ir.Stmt.output stmt :: Ndp_ir.Stmt.inputs stmt)
         nest.Ndp_ir.Loop.body)
  in
  let assign ~usable ~distance =
    (* The chunk count tracks the usable-node count so the greedy
       matching below always finds a free node; should a plan ever avoid
       every node the caller passes an all-true [usable]. *)
    let usable_count =
      let k = ref 0 in
      for node = 0 to num_nodes - 1 do
        if usable node then incr k
      done;
      !k
    in
    let chunks = min usable_count (max 1 trips) in
    let bounds k =
      let per = trips / chunks and rem = trips mod chunks in
      let lo = (k * per) + min k rem in
      let hi = lo + per + if k < rem then 1 else 0 in
      (lo, hi)
    in
    (* Resolve each (iteration, reference) once and histogram home-node
       hits per chunk: the chunk-on-node cost the greedy matching compares
       is then [sum_h hist.(k).(h) * distance node h] — the same integer
       sum the per-candidate walk computed, regrouped by home node. The
       naive walk re-resolved every reference for each of the
       [usable_count - k] candidate nodes of greedy step [k]; the home
       lookups it would have performed are accounted below so the
       [mem.home_lookups] profile metric keeps its value. *)
    let hist = Array.make_matrix chunks num_nodes 0 in
    for k = 0 to chunks - 1 do
      let lo, hi = bounds k in
      let h = hist.(k) in
      for i = lo to hi - 1 do
        let env = iters.(i) in
        Array.iter
          (List.iter (fun r ->
               match ctx.Context.runtime_resolve r env with
               | None -> ()
               | Some va ->
                 let bank = home ctx va in
                 h.(bank) <- h.(bank) + 1))
          stmt_refs
      done;
      let extra = usable_count - k - 1 in
      if extra > 0 then
        for node = 0 to num_nodes - 1 do
          if h.(node) > 0 then
            Ndp_sim.Machine.note_home_lookups ctx.Context.machine ~bank:node
              ~count:(h.(node) * extra)
        done
    done;
    let chunk_cost k node =
      let h = hist.(k) in
      let acc = ref 0 in
      for home = 0 to num_nodes - 1 do
        if h.(home) > 0 then acc := !acc + (h.(home) * distance node home)
      done;
      !acc
    in
    (* Greedy matching: chunks claim their cheapest still-free node. *)
    let taken = Array.make num_nodes false in
    let assignment = Array.make trips 0 in
    for k = 0 to chunks - 1 do
      let best = ref (-1) and best_cost = ref max_int in
      for node = 0 to num_nodes - 1 do
        if (not taken.(node)) && usable node then begin
          let c = chunk_cost k node in
          if c < !best_cost then begin
            best := node;
            best_cost := c
          end
        end
      done;
      taken.(!best) <- true;
      let lo, hi = bounds k in
      for i = lo to hi - 1 do
        assignment.(i) <- !best
      done
    done;
    assignment
  in
  let healthy =
    let k = ref 0 in
    for node = 0 to num_nodes - 1 do
      if not (Context.avoided ctx node) then incr k
    done;
    !k
  in
  let usable node = healthy = 0 || not (Context.avoided ctx node) in
  let assignment = assign ~usable ~distance:(fun u v -> Context.distance ctx u v) in
  (* Repair accounting: every iteration whose owner differs from the one
     the fault-free matching would pick was remapped — off an avoided
     node, or away from routes the plan degraded. *)
  (match ctx.Context.repair with
  | None -> ()
  | Some _ ->
    let plain = assign ~usable:(fun _ -> true) ~distance:(Mesh.distance mesh) in
    let sweeps = List.length iterations / max 1 trips in
    Array.iteri
      (fun i node ->
        if node <> plain.(i) then
          ctx.Context.remapped_tasks <- ctx.Context.remapped_tasks + sweeps)
      assignment);
  Array.init (List.length iterations) (fun i -> assignment.(i mod trips))

let compile_instance (ctx : Context.t) ~group ~node (inst : Ndp_ir.Dependence.instance) =
  let stmt = inst.Ndp_ir.Dependence.stmt in
  let env = inst.Ndp_ir.Dependence.env in
  let operand r =
    Option.map
      (fun va -> Task.Load { va; bytes = Context.bytes_of ctx r })
      (ctx.runtime_resolve r env)
  in
  let operands = List.filter_map operand (Ndp_ir.Stmt.inputs stmt) in
  let store =
    Option.map
      (fun va -> (va, Context.bytes_of ctx (Ndp_ir.Stmt.output stmt)))
      (ctx.runtime_resolve (Ndp_ir.Stmt.output stmt) env)
  in
  Task.make
    ~id:(Context.fresh_task_id ctx)
    ~group ~node
    ~ops:(Ndp_ir.Stmt.ops stmt)
    ~operands ?store
    ~label:("g" ^ string_of_int group ^ ":default")
    ()
