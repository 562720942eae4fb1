(** Window-based multi-statement scheduling (Sections 4.3-4.4).

    A window is a run of consecutive statement instances. Within a window
    the variable2node map propagates L1 placements from already-scheduled
    subcomputations to later MSTs, inter-statement dependences are turned
    into ordered result arcs, and the synchronization graph is minimized.
    The window-size preprocessing prices each nest under every window size
    from 1 to the configured maximum and keeps the size with the least
    estimated data movement. *)

type meta = {
  group : int; (** global statement-instance id *)
  default_node : int; (** node the default placement would use *)
  inst : Ndp_ir.Dependence.instance;
}

type stmt_report = {
  r_group : int;
  est_movement : int;
  default_est : int;
  parallelism : int;
  task_count : int;
  offload_mix : Ndp_sim.Task.op_mix;
  syncs : int; (** surviving synchronizations charged to this statement *)
}

type compiled = {
  tasks : (Ndp_sim.Task.t * int) list;
      (** tasks with their dependency level (1 = no result operands),
          sorted level-major so ready subcomputations precede waiting
          ones in every node's generated program *)
  reports : stmt_report list;
  sync_count : int; (** surviving synchronization arcs *)
  predictions : (int * bool) list; (** (va, predicted hit) in issue order *)
  roots : (int * int) list;
      (** (statement group, final task id) per compiled instance — the
          task that performs the output store *)
  sync_arcs : (int * int) list;
      (** the surviving cross-node synchronization arcs themselves, as
          (producer task, consumer task); [sync_count] is their length *)
}

val store_node_of : Context.t -> meta -> int
(** Home node of the statement's output under the compiler's view; falls
    back to the default node when the output is unanalyzable. *)

val compile :
  ?deps:Ndp_ir.Dependence.dep list ->
  ?fusion:Fusion.slot option array ->
  Context.t ->
  meta list ->
  compiled
(** Compile one window. Clears and then populates the variable2node map.
    [deps], when given, must be the dependence analysis of exactly these
    instances (indices local to the list) and skips the per-window
    re-analysis — the window-size preprocessing derives one analysis per
    nest sample and slices it per chunk. [fusion], when given, is the
    fusion plan sliced to this window (parallel to the meta list): a
    fused member executes whole on its chain's node, and its write-back
    becomes L1-local when the slot elides it. An absent array or all-
    [None] slots compile exactly as without [fusion]. *)

type analytic = {
  a_est : int array;
      (** margin-ruled movement estimate per instance, in links — the same
          quantity [compile] reports as [est_movement] *)
  a_syncs : int;  (** modeled cross-node synchronization handshakes *)
}

val analytic_of : Context.t -> meta list -> window:int -> analytic
(** Closed-form counterpart of compiling the stream under a fixed window
    size: per-statement movement from the splitter's estimates with the
    variable2node map maintained at located (rather than scheduled) nodes,
    and one handshake per distinct in-chunk cross-node dependence pair.
    No tasks are built and no schedule is run. *)

val choose_size_analytic : ?pool:Ndp_prelude.Pool.t -> Context.t -> meta list -> max:int -> int
(** The window sizer — the preprocessing step of Section 4.4: pick the
    window size in [1..max] minimizing estimated data movement plus
    synchronization cost over a sample of one loop nest's instance stream.
    One walk over the sample prices every candidate size (each statement
    keeps its reuse-aware estimate when its L1 providers share the chunk,
    and its cold estimate when the boundary cuts them off). Only when
    several candidates land within 10% of the analytic minimum are those
    candidates re-scored by compiling the sample (dependences analyzed
    once, banded to [max], and sliced per chunk), concurrently over [pool]
    when given; the smallest window wins ties. The chosen size is
    independent of [pool]. Nests with only non-affine references
    short-circuit to size 1. *)

val sync_links_of : Context.t -> int
(** Cost of one synchronization handshake expressed in links — the unit
    that makes movement and synchronization commensurable in the
    preprocessing objective. *)

val all_non_affine : meta list -> bool
(** No reference of any instance is compile-time analyzable: the movement
    estimate cannot discriminate between window sizes (everything resolves
    through the inspector), so sizing falls back to 1 with a W402 lint. *)

val chunk : 'a list -> int -> 'a list list
