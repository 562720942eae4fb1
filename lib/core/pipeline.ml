module Config = Ndp_sim.Config
module Machine = Ndp_sim.Machine
module Engine = Ndp_sim.Engine
module Task = Ndp_sim.Task
module Dep = Ndp_ir.Dependence
module Loop = Ndp_ir.Loop

type window_policy = Adaptive | Analytic | Fixed of int

type part_options = {
  window : window_policy;
  reuse_aware : bool;
  sync_minimize : bool;
  level_based : bool;
  balance_threshold : float option;
  ideal_data : bool;
  use_inspector : bool;
  fuse : bool;
  fuse_capacity : int option;
      (** footprint bound in bytes for one fused chain; [None] uses the
          configured L1 size, [Some 0] makes fusion the identity pass *)
}

type scheme = Default | Partitioned of part_options

let partitioned_defaults =
  {
    window = Adaptive;
    reuse_aware = true;
    sync_minimize = true;
    level_based = true;
    balance_threshold = None;
    ideal_data = false;
    use_inspector = true;
    fuse = false;
    fuse_capacity = None;
  }

type tweaks = {
  l1_boost : float;
  distance_factor : float;
  mc_overrides : (int * int) list;
  cost_scale : float;
  extra_syncs : int;
}

let no_tweaks =
  { l1_boost = 0.0; distance_factor = 1.0; mc_overrides = []; cost_scale = 1.0; extra_syncs = 0 }

(* What the schedule validator needs to re-check a compiled schedule:
   which statement instances ran, as which tasks, in which emission order,
   under which ordering regime. Captured only under [~validate:true]. *)
type schedule_trace =
  | Serialized of { t_nest : string; t_metas : Window.meta list; t_tasks : Task.t list }
      (** default scheme: one task per instance, emitted in global program
          order (every task is a barrier for the next) *)
  | Windowed of { t_nest : string; t_metas : Window.meta list; t_compiled : Window.compiled }
      (** one compiled window of the partitioned scheme *)

type result = {
  kernel_name : string;
  scheme_name : string;
  stats : Ndp_sim.Stats.t;
  energy : Ndp_sim.Energy.breakdown;
  exec_time : int;
  group_hops : int array;
  group_avg_latency : float array;
  parallelism : float array;
  group_syncs : int array;
  sync_arcs : int;
  num_instances : int;
  offload_mix : Task.op_mix;
  analyzable_fraction : float;
  predictor_accuracy : float;
  windows_chosen : (string * int) list;
  est_movement_total : int;
  tasks_emitted : int;
  remapped_tasks : int;
  node_finish : int array;
  node_busy : int array;
  fusion_decisions : Fusion.decision list;
      (** the fusion plans applied, aggregated per chain signature; empty
          unless the scheme fuses *)
  traces : schedule_trace list;
  emitted : Task.t list list;
      (** the task stream as issued to the engine (one sublist per
          [Engine.run] call, pre-tweaks); captured only with
          [~capture:true], for {!replay} *)
}

let scheme_name = function
  | Default -> "default"
  | Partitioned o ->
    let base =
      match o.window with
      | Adaptive -> "partitioned(adaptive)"
      | Analytic -> "partitioned(analytic)"
      | Fixed k -> Printf.sprintf "partitioned(w=%d)" k
    in
    if o.fuse then base ^ "+fuse" else base

(* Enumerate the statement-instance stream of a nest, in execution order.
   Built through one pre-sized array rather than nested [List.mapi] +
   [List.concat]: nests reach hundreds of thousands of instances and the
   intermediate per-iteration lists dominated allocation here. *)
let instance_stream (ctx : Context.t) nest ~first_group =
  let iterations = Loop.iterations nest in
  let assignment = Baseline.assign_iterations ctx nest iterations in
  let envs = Array.of_list iterations in
  let body = Array.of_list nest.Loop.body in
  let stmts_per_iter = Array.length body in
  let n = Array.length envs * stmts_per_iter in
  let metas =
    Array.to_list
      (Array.init n (fun i ->
           let iter_idx = i / stmts_per_iter in
           let stmt_idx = i mod stmts_per_iter in
           {
             Window.group = first_group + i;
             default_node = assignment.(iter_idx);
             inst = { Dep.stmt_idx; stmt = body.(stmt_idx); env = envs.(iter_idx) };
           }))
  in
  (metas, first_group + n)

let analyzable_fraction metas =
  let count (ok, total) (m : Window.meta) =
    let refs =
      Ndp_ir.Stmt.output m.Window.inst.Dep.stmt :: Ndp_ir.Stmt.inputs m.Window.inst.Dep.stmt
    in
    let ok' = List.length (List.filter Ndp_ir.Reference.analyzable refs) in
    (ok + ok', total + List.length refs)
  in
  let ok, total = List.fold_left count (0, 0) metas in
  if total = 0 then 1.0 else float_of_int ok /. float_of_int total

let make_context ?(options_override = None) ?(obs = Ndp_obs.Sink.none) ?faults ?repair ~config
    ~tweaks scheme kernel =
  let machine = Machine.create ~obs ?faults config in
  (match config.Config.memory_mode with
  | Config.Flat ->
    Machine.set_hot_ranges machine (Kernel.hot_ranges kernel ~budget:config.Config.mcdram_capacity)
  | Config.Hybrid ->
    Machine.set_hot_ranges machine
      (Kernel.hot_ranges kernel ~budget:(config.Config.mcdram_capacity / 2))
  | Config.Cache_mode -> ());
  Machine.set_l1_boost machine tweaks.l1_boost;
  Ndp_sim.Network.set_distance_factor (Machine.network machine) tweaks.distance_factor;
  Machine.set_mc_overrides machine tweaks.mc_overrides;
  let opts = match scheme with Partitioned o -> o | Default -> partitioned_defaults in
  let insp = Kernel.inspector kernel in
  if opts.use_inspector then Ndp_ir.Inspector.run insp;
  let address_of = Kernel.address_of kernel in
  let runtime_resolve = Ndp_ir.Inspector.runtime_resolver insp ~address_of in
  let compiler_resolve =
    if opts.ideal_data then runtime_resolve
    else Ndp_ir.Inspector.compiler_resolver insp ~address_of
  in
  let ctx_options =
    match options_override with
    | Some o -> o
    | None ->
      {
        Context.reuse_aware = opts.reuse_aware;
        sync_minimize = opts.sync_minimize;
        level_based = opts.level_based;
        balance_threshold =
          Option.value opts.balance_threshold ~default:config.Config.balance_threshold;
        ideal_location = opts.ideal_data;
      }
  in
  Context.create ~machine ~compiler_resolve ~runtime_resolve
    ~arrays:kernel.Kernel.program.Loop.arrays ?repair ~options:ctx_options ()

let apply_tweaks tweaks (task : Task.t) =
  let task =
    if tweaks.cost_scale > 1.0 then
      { task with Task.cost = max 1 (int_of_float (float_of_int task.Task.cost /. tweaks.cost_scale)) }
    else task
  in
  if tweaks.extra_syncs > 0 then { task with Task.syncs = task.Task.syncs + tweaks.extra_syncs }
  else task

let line_of config va = va / config.Config.line_bytes

(* The record request behind every entry point: one value carries what
   used to be [run]'s optional-argument sprawl, so jobs can be hashed
   (Ndp_serve.Key), batched ([run_batch]) and shipped over a wire
   (Ndp_serve.Protocol) without re-encoding eight optionals each time. *)
type job = {
  scheme : scheme;
  kernel : Kernel.t;
  config : Config.t;
  tweaks : tweaks;
  faults : Ndp_fault.Plan.t option;
  repair : bool;
  validate : bool;
  capture : bool;
}

let job_make ?(config = Config.default) ?(tweaks = no_tweaks) ?faults ?(repair = false)
    ?(validate = false) ?(capture = false) scheme kernel =
  { scheme; kernel; config; tweaks; faults; repair; validate; capture }

let run_job ?pool ?(obs = Ndp_obs.Sink.none) (j : job) =
  let { scheme; kernel; config; tweaks; faults; repair; validate; capture } = j in
  let repair_plan = if repair then faults else None in
  (* Phase spans live on the calling domain only: window-size estimation
     and batch runs fan work across the pool, so per-phase brackets here
     stay race-free and deterministic at any [--jobs]. *)
  let spans = obs.Ndp_obs.Sink.spans in
  let sp_parse = Ndp_obs.Span.enter spans "parse" in
  let ctx = make_context ~config ~tweaks ~obs ?faults ?repair:repair_plan scheme kernel in
  let traces = ref [] in
  let emitted = ref [] in
  let engine = Engine.create ~obs ?faults ctx.Context.machine in
  let streams, total_groups =
    List.fold_left
      (fun (acc, g) nest ->
        let metas, g' = instance_stream ctx nest ~first_group:g in
        ((nest, metas) :: acc, g'))
      ([], 0) kernel.Kernel.program.Loop.nests
  in
  let streams = List.rev streams in
  let ledger = obs.Ndp_obs.Sink.ledger in
  let ledger_on = Ndp_obs.Ledger.enabled ledger in
  (* Predicted-cost hook: [record_predicted group movement] files the
     compiler's [size x distance] estimate (in link units, one cache line
     per unit) under the group's statement, normalized to the flit-hop
     unit the ledger measures. Recording happens here — from the reports
     of the windows actually emitted — and never inside [Window.compile],
     which also runs on forked contexts during window-size estimation. *)
  let record_predicted =
    if not ledger_on then fun _ _ -> ()
    else begin
      let stmt_of_group = Array.make (max 1 total_groups) 0 in
      List.iter
        (fun ((nest : Loop.nest), metas) ->
          List.iter
            (fun (m : Window.meta) ->
              stmt_of_group.(m.Window.group) <-
                Ndp_obs.Ledger.stmt_id ledger ~nest:nest.Loop.nest_name
                  ~stmt:m.Window.inst.Dep.stmt_idx)
            metas)
        streams;
      Ndp_obs.Ledger.set_group_resolver ledger (fun g ->
          if g >= 0 && g < total_groups then stmt_of_group.(g) else 0);
      let ranges =
        Array.of_list
          (List.sort compare
             (List.map
                (fun (d : Ndp_ir.Array_decl.t) ->
                  (d.base_va, d.base_va + (d.length * d.elem_size), Ndp_obs.Ledger.array_id ledger d.name))
                kernel.Kernel.program.Loop.arrays))
      in
      Ndp_obs.Ledger.set_va_resolver ledger (fun va ->
          let lo = ref 0 and hi = ref (Array.length ranges) in
          let found = ref 0 in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            let base, limit, id = ranges.(mid) in
            if va < base then hi := mid
            else if va >= limit then lo := mid + 1
            else begin
              found := id;
              lo := !hi
            end
          done;
          !found);
      let line_flits = Config.flits_of_bytes config config.Config.line_bytes in
      fun group movement ->
        Ndp_obs.Ledger.predict ledger ~stmt:stmt_of_group.(group)
          ~flit_hops:(movement * line_flits)
    end
  in
  let parallelism = Array.make total_groups 1.0 in
  let group_syncs = Array.make total_groups 0 in
  let est_movement_total = ref 0 in
  let sync_arcs = ref 0 in
  let offload = ref Task.zero_mix in
  let windows_chosen = ref [] in
  let tasks_emitted = ref 0 in
  let fusion_decisions = ref [] in
  (* Arrays fusion must never elide: referenced by more than one nest
     (the intermediate outlives its nest), or read through an index-array
     indirection anywhere (those reads are invisible to the dependence
     analysis, which buckets by the referenced data array). *)
  let shared_arrays =
    let counts = Hashtbl.create 16 in
    List.iter
      (fun (nest : Loop.nest) ->
        let local = Hashtbl.create 16 in
        List.iter
          (fun (s : Ndp_ir.Stmt.t) ->
            List.iter
              (fun (r : Ndp_ir.Reference.t) ->
                Hashtbl.replace local r.Ndp_ir.Reference.array ();
                let rec index_arrays (sub : Ndp_ir.Subscript.t) =
                  match sub with
                  | Ndp_ir.Subscript.Indirect { index_array; inner } ->
                    Hashtbl.replace counts index_array 2;
                    index_arrays inner
                  | Ndp_ir.Subscript.Affine _ -> ()
                in
                index_arrays r.Ndp_ir.Reference.subscript)
              (Ndp_ir.Stmt.output s :: Ndp_ir.Stmt.inputs s))
          nest.Loop.body;
        Hashtbl.iter
          (fun a () ->
            Hashtbl.replace counts a (1 + Option.value (Hashtbl.find_opt counts a) ~default:0))
          local)
      kernel.Kernel.program.Loop.nests;
    let shared = Hashtbl.create 16 in
    Hashtbl.iter (fun a c -> if c > 1 then Hashtbl.replace shared a ()) counts;
    shared
  in
  Ndp_obs.Span.attr_int spans sp_parse "instances" total_groups;
  Ndp_obs.Span.exit spans sp_parse;
  (match scheme with
  | Default ->
    List.iter
      (fun ((nest : Loop.nest), metas) ->
        (* The default scheme interleaves per-instance compilation with
           execution, so it gets one coarse per-nest span rather than the
           partitioned scheme's phase breakdown. *)
        let sp_sim = Ndp_obs.Span.enter spans "simulate" in
        Ndp_obs.Span.attr_str spans sp_sim "nest" nest.Loop.nest_name;
        let c0 = Ndp_sim.Stats.finish_time (Engine.stats engine) in
        let nest_tasks = ref [] in
        List.iter
          (fun (m : Window.meta) ->
            let task =
              Baseline.compile_instance ctx ~group:m.Window.group ~node:m.Window.default_node
                m.Window.inst
            in
            if ledger_on then
              record_predicted m.Window.group
                (Splitter.default_movement ctx ~store_node:m.Window.default_node
                   m.Window.inst.Dep.stmt m.Window.inst.Dep.env);
            incr tasks_emitted;
            if validate then nest_tasks := task :: !nest_tasks;
            if capture then emitted := [ task ] :: !emitted;
            Engine.run engine [ apply_tweaks tweaks task ])
          metas;
        if validate then
          traces :=
            Serialized
              { t_nest = nest.Loop.nest_name; t_metas = metas; t_tasks = List.rev !nest_tasks }
            :: !traces;
        let c1 = Ndp_sim.Stats.finish_time (Engine.stats engine) in
        Ndp_obs.Span.exit ~cycles:(c1 - c0) spans sp_sim)
      streams
  | Partitioned opts ->
    List.iter
      (fun ((nest : Loop.nest), metas) ->
        let sp_w = Ndp_obs.Span.enter spans "window" in
        Ndp_obs.Span.attr_str spans sp_w "nest" nest.Loop.nest_name;
        let w =
          match opts.window with
          | Fixed k -> max 1 k
          | Adaptive | Analytic ->
            Window.choose_size_analytic ?pool ctx metas ~max:config.Config.max_window
        in
        Ndp_obs.Span.attr_int spans sp_w "w" w;
        Ndp_obs.Span.exit spans sp_w;
        windows_chosen := (nest.Loop.nest_name, w) :: !windows_chosen;
        let pending : (int, bool Queue.t) Hashtbl.t = Hashtbl.create 64 in
        let push_prediction (va, p) =
          let line = line_of config va in
          let q =
            match Hashtbl.find_opt pending line with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.replace pending line q;
              q
          in
          Queue.push p q
        in
        let pop_prediction line =
          match Hashtbl.find_opt pending line with
          | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
          | _ -> None
        in
        let on_load ~va ~l1_hit ~l2_hit =
          let line = line_of config va in
          match l2_hit with
          | None ->
            (* Satisfied by the L1: the L2 prediction went untested. *)
            if l1_hit then ignore (pop_prediction line)
          | Some hit -> (
            match pop_prediction line with
            | Some predicted ->
              Ndp_mem.Miss_predictor.confirm ctx.Context.predictor ~addr:va ~predicted ~hit
            | None -> Ndp_mem.Miss_predictor.note_access ctx.Context.predictor va)
        in
        let nest_tasks = ref [] in
        (* One dependence analysis per nest, sliced per window: a pair
           inside a chunk is exactly what analyzing the chunk alone finds
           (the analysis is pairwise — see [Window.estimate_sliced]), and
           [analyze] emits deps in ascending (src, dst) order, so each
           chunk's slice is one pointer walk instead of a re-analysis that
           re-resolves every reference in the window. [Window.compile]
           reads only in-chunk pairs, so the analysis is banded to the
           window — except under fusion, whose first-kill rule needs every
           later re-write in view. Fusion and fault repair do not compose:
           repair may remap a chain member off its node, stranding the
           L1-resident intermediate. *)
        let fuse = opts.fuse && repair_plan = None in
        let sp_d = Ndp_obs.Span.enter spans "deps" in
        Ndp_obs.Span.attr_str spans sp_d "nest" nest.Loop.nest_name;
        let deps_arr =
          Array.of_list
            (Dep.analyze
               ?band:(if fuse then None else Some w)
               ctx.Context.compiler_resolve
               (List.map (fun (m : Window.meta) -> m.Window.inst) metas))
        in
        Ndp_obs.Span.attr_int spans sp_d "deps" (Array.length deps_arr);
        Ndp_obs.Span.exit spans sp_d;
        (* The fusion plan is computed once per nest against the full
           dependence analysis and sliced per chunk below. *)
        let fusion_slots =
          if fuse then begin
            let sp_f = Ndp_obs.Span.enter spans "fusion" in
            Ndp_obs.Span.attr_str spans sp_f "nest" nest.Loop.nest_name;
            let metas_arr = Array.of_list metas in
            let insts = Array.map (fun (m : Window.meta) -> m.Window.inst) metas_arr in
            let default_node =
              Array.map (fun (m : Window.meta) -> m.Window.default_node) metas_arr
            in
            let capacity = Option.value opts.fuse_capacity ~default:config.Config.l1_size in
            let slots, decs =
              Fusion.plan ctx ~nest:nest.Loop.nest_name ~window:w ~capacity
                ~shared:shared_arrays ~default_node insts deps_arr
            in
            fusion_decisions := !fusion_decisions @ decs;
            Ndp_obs.Span.attr_int spans sp_f "decisions" (List.length decs);
            Ndp_obs.Span.exit spans sp_f;
            Some slots
          end
          else None
        in
        let sp_s = Ndp_obs.Span.enter spans "schedule" in
        Ndp_obs.Span.attr_str spans sp_s "nest" nest.Loop.nest_name;
        let dp = ref 0 in
        List.iteri
          (fun ci window_metas ->
            let lo = ci * w in
            let hi = lo + List.length window_metas in
            while !dp < Array.length deps_arr && deps_arr.(!dp).Dep.src < lo do
              incr dp
            done;
            let sliced = ref [] in
            let p = ref !dp in
            while !p < Array.length deps_arr && deps_arr.(!p).Dep.src < hi do
              let d = deps_arr.(!p) in
              if d.Dep.dst < hi then
                sliced := { d with Dep.src = d.Dep.src - lo; Dep.dst = d.Dep.dst - lo } :: !sliced;
              incr p
            done;
            dp := !p;
            let fusion = Option.map (fun s -> Array.sub s lo (hi - lo)) fusion_slots in
            let compiled = Window.compile ~deps:(List.rev !sliced) ?fusion ctx window_metas in
            if validate then
              traces :=
                Windowed
                  { t_nest = nest.Loop.nest_name; t_metas = window_metas; t_compiled = compiled }
                :: !traces;
            List.iter push_prediction compiled.Window.predictions;
            List.iter
              (fun (r : Window.stmt_report) ->
                parallelism.(r.Window.r_group) <- float_of_int r.Window.parallelism;
                group_syncs.(r.Window.r_group) <- r.Window.syncs;
                record_predicted r.Window.r_group r.Window.est_movement;
                est_movement_total := !est_movement_total + r.Window.est_movement;
                offload := Task.mix_add !offload r.Window.offload_mix)
              compiled.Window.reports;
            sync_arcs := !sync_arcs + compiled.Window.sync_count;
            tasks_emitted := !tasks_emitted + List.length compiled.Window.tasks;
            nest_tasks := compiled.Window.tasks :: !nest_tasks)
          (Window.chunk metas w);
        (* Emit the whole nest level-major: every node first runs all of
           its dependency-free subcomputations across the nest's windows,
           then the joins. This is the decoupling the paper's code
           generation achieves by interleaving a node's own iterations
           with the subcomputations it hosts for others (Section 4.5) —
           producers finish long before consumers need them, so sync
           waits do not convoy. The stable sort keeps producers before
           consumers within a level chain. *)
        let ordered =
          let arr = Array.of_list (List.concat (List.rev !nest_tasks)) in
          Array.stable_sort (fun ((_ : Task.t), la) ((_ : Task.t), lb) -> compare la lb) arr;
          arr
        in
        Ndp_obs.Span.attr_int spans sp_s "tasks" (Array.length ordered);
        Ndp_obs.Span.exit spans sp_s;
        if capture then
          emitted := Array.fold_right (fun (t, _) acc -> t :: acc) ordered [] :: !emitted;
        let sp_sim = Ndp_obs.Span.enter spans "simulate" in
        Ndp_obs.Span.attr_str spans sp_sim "nest" nest.Loop.nest_name;
        let c0 = Ndp_sim.Stats.finish_time (Engine.stats engine) in
        Engine.run ~on_load engine
          (Array.fold_right (fun (t, _) acc -> apply_tweaks tweaks t :: acc) ordered []);
        let c1 = Ndp_sim.Stats.finish_time (Engine.stats engine) in
        Ndp_obs.Span.exit ~cycles:(c1 - c0) spans sp_sim)
      streams);
  let stats = Ndp_sim.Stats.copy (Engine.stats engine) in
  (* End every timeline series at the run's last cycle, boundary or not. *)
  Ndp_obs.Timeline.flush obs.Ndp_obs.Sink.timeline ~now:(Ndp_sim.Stats.finish_time stats);
  let group_hops = Array.init total_groups (fun g -> Engine.group_hops engine g) in
  let group_avg_latency =
    Array.init total_groups (fun g ->
        let sum, count = Engine.group_latency engine g in
        if count = 0 then 0.0 else float_of_int sum /. float_of_int count)
  in
  let all_metas = List.concat_map snd streams in
  let reg = obs.Ndp_obs.Sink.metrics in
  if Ndp_obs.Metrics.enabled reg then
    List.iter
      (fun (nest_name, w) ->
        Ndp_obs.Metrics.set_gauge
          (Ndp_obs.Metrics.gauge reg (Printf.sprintf "core.window_size{nest=%s}" nest_name))
          (float_of_int w))
      (List.rev !windows_chosen);
  if repair_plan <> None then
    Ndp_obs.Metrics.add
      (Ndp_obs.Metrics.counter reg "fault.remapped_tasks")
      ctx.Context.remapped_tasks;
  {
    kernel_name = kernel.Kernel.name;
    scheme_name = scheme_name scheme;
    stats;
    energy = Ndp_sim.Energy.of_stats stats;
    exec_time = Ndp_sim.Stats.finish_time stats;
    group_hops;
    group_avg_latency;
    parallelism;
    group_syncs;
    sync_arcs = !sync_arcs;
    num_instances = total_groups;
    offload_mix = !offload;
    analyzable_fraction = analyzable_fraction all_metas;
    predictor_accuracy = Ndp_mem.Miss_predictor.accuracy ctx.Context.predictor;
    windows_chosen = List.rev !windows_chosen;
    est_movement_total = !est_movement_total;
    tasks_emitted = !tasks_emitted;
    remapped_tasks = ctx.Context.remapped_tasks;
    node_finish = Engine.node_clocks engine;
    node_busy = Engine.node_busy engine;
    fusion_decisions = !fusion_decisions;
    traces = List.rev !traces;
    emitted = List.rev !emitted;
  }

module Job = struct
  type t = job = {
    scheme : scheme;
    kernel : Kernel.t;
    config : Config.t;
    tweaks : tweaks;
    faults : Ndp_fault.Plan.t option;
    repair : bool;
    validate : bool;
    capture : bool;
  }

  let make = job_make
  let run = run_job
end

(* Thin compatibility wrapper over [Job]; prefer [Job.make] + [Job.run]. *)
let run ?config ?tweaks ?(validate = false) ?(capture = false) ?pool ?obs ?faults ?repair
    scheme kernel =
  run_job ?pool ?obs (job_make ?config ?tweaks ?faults ?repair ~validate ~capture scheme kernel)

(* --- Batched simulation ------------------------------------------------ *)

(* Each job builds its own machine, engine, context and inspector, and a
   [Kernel.t] is immutable, so jobs share no mutable state and each result
   is byte-identical to the corresponding solo [run]. Metrics follow the
   [Sharded] discipline with a twist: every JOB (not domain) fills a
   private registry — two jobs sharing a per-domain shard would also share
   [Stats] counter handles and read each other's counts — and the private
   registries are merged in input order and absorbed as one shard, so the
   merged totals are identical at any pool size. *)
let run_batch ?pool ?metrics jobs =
  let with_reg =
    match metrics with Some sh -> Ndp_obs.Metrics.Sharded.enabled sh | None -> false
  in
  let run_one (j : Job.t) =
    let reg = if with_reg then Ndp_obs.Metrics.create () else Ndp_obs.Metrics.disabled in
    let obs =
      if with_reg then { Ndp_obs.Sink.none with Ndp_obs.Sink.metrics = reg }
      else Ndp_obs.Sink.none
    in
    (Job.run ~obs j, reg)
  in
  let outcomes =
    match pool with
    | None -> List.map run_one jobs
    | Some pool -> Ndp_prelude.Pool.parallel_map pool run_one jobs
  in
  (match metrics with
  | Some sh when with_reg ->
    Ndp_obs.Metrics.Sharded.add_shard sh (Ndp_obs.Metrics.merge (List.map snd outcomes))
  | _ -> ());
  List.map fst outcomes

type replayed = {
  rp_stats : Ndp_sim.Stats.t;
  rp_energy : Ndp_sim.Energy.breakdown;
  rp_exec_time : int;
  rp_node_finish : int array;
  rp_node_busy : int array;
}

(* Re-simulate a captured task stream on a fresh machine, skipping
   compilation entirely. The schedule is the one compiled under the
   capture run's config; replaying it under a different cost model asks
   "how would this fixed schedule perform on that hardware" — the
   design-space question a sweep explores. Address-shape parameters
   (mesh dimensions, line size, page size) must match the capture config,
   since task operands carry resolved virtual addresses. *)
let replay ?(config = Config.default) ?(tweaks = no_tweaks) ?(obs = Ndp_obs.Sink.none) kernel
    emitted =
  (* The span opens before the machine and engine are built, so their
     construction is attributed to the replay rather than to no phase. *)
  let spans = obs.Ndp_obs.Sink.spans in
  let sp = Ndp_obs.Span.enter spans "replay" in
  let machine = Machine.create ~obs config in
  (match config.Config.memory_mode with
  | Config.Flat ->
    Machine.set_hot_ranges machine (Kernel.hot_ranges kernel ~budget:config.Config.mcdram_capacity)
  | Config.Hybrid ->
    Machine.set_hot_ranges machine
      (Kernel.hot_ranges kernel ~budget:(config.Config.mcdram_capacity / 2))
  | Config.Cache_mode -> ());
  Machine.set_l1_boost machine tweaks.l1_boost;
  Ndp_sim.Network.set_distance_factor (Machine.network machine) tweaks.distance_factor;
  Machine.set_mc_overrides machine tweaks.mc_overrides;
  let engine = Engine.create ~obs machine in
  List.iter (fun batch -> Engine.run engine (List.map (apply_tweaks tweaks) batch)) emitted;
  let stats = Ndp_sim.Stats.copy (Engine.stats engine) in
  Ndp_obs.Span.exit ~cycles:(Ndp_sim.Stats.finish_time stats) spans sp;
  Ndp_obs.Timeline.flush obs.Ndp_obs.Sink.timeline ~now:(Ndp_sim.Stats.finish_time stats);
  {
    rp_stats = stats;
    rp_energy = Ndp_sim.Energy.of_stats stats;
    rp_exec_time = Ndp_sim.Stats.finish_time stats;
    rp_node_finish = Engine.node_clocks engine;
    rp_node_busy = Engine.node_busy engine;
  }

let static_context ?(config = Config.default) scheme kernel =
  make_context ~config ~tweaks:no_tweaks scheme kernel

let nest_stream = instance_stream

let profile_page_accesses ?(config = Config.default) kernel =
  let ctx = make_context ~config ~tweaks:no_tweaks Default kernel in
  let acc = ref [] in
  let _ =
    List.fold_left
      (fun g nest ->
        let metas, g' = instance_stream ctx nest ~first_group:g in
        List.iter
          (fun (m : Window.meta) ->
            let refs =
              Ndp_ir.Stmt.output m.Window.inst.Dep.stmt
              :: Ndp_ir.Stmt.inputs m.Window.inst.Dep.stmt
            in
            List.iter
              (fun r ->
                match ctx.Context.runtime_resolve r m.Window.inst.Dep.env with
                | Some va -> acc := (Data_mapping.page_of ctx va, m.Window.default_node) :: !acc
                | None -> ())
              refs)
          metas;
        g')
      0 kernel.Kernel.program.Loop.nests
  in
  !acc
