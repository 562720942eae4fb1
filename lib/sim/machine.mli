(** The simulated manycore: per-node L1s, distributed SNUCA L2 banks,
    corner memory controllers, MCDRAM/DDR backing store and the mesh
    network. Implements the access flow of Figure 1: L1 miss -> home L2
    bank -> (on L2 miss) memory controller -> fill back. *)

type t

type outcome = {
  arrival : int; (** cycle at which the data reaches the requesting core *)
  l1_hit : bool;
  l2_hit : bool option; (** [None] when the L1 satisfied the access *)
}

val create : ?obs:Ndp_obs.Sink.t -> ?faults:Ndp_fault.Plan.t -> Config.t -> t
(** With [obs], the machine registers per-node L1 hit/miss vectors
    ([mem.l1_hits{node}], ...), per-bank L2 vectors
    ([mem.l2_bank_hits{bank}], ...), per-MC request counts, derived cache
    hit/miss/eviction gauges and the network's per-link families in
    [obs.metrics], and message traffic in [obs.trace]. Disabled by
    default; observability never changes timing or [stats].

    With [faults], the plan is forwarded to the internal {!Network} (link
    degradation and kill-retry penalties) and memory latency behind a
    backpressured controller is multiplied by the plan's MC factor,
    surfaced as [fault.mc_penalty_cycles]. Without a plan, timing is
    byte-identical to the pre-fault simulator. *)

val set_hot_ranges : t -> (int * int) list -> unit
(** Virtual-address [(base, length_bytes)] ranges placed in MCDRAM under
    the flat and hybrid memory modes (the VTune-guided placement of
    Section 6.1). *)

val set_l1_boost : t -> float -> unit
(** With probability [p], convert an L1 miss into a hit. Used by the S1
    isolation scheme (Figure 18) to impose the optimized code's L1 profile
    on the default placement. *)

val set_mc_overrides : t -> (int * int) list -> unit
(** [(virtual_page, mc_node)] pairs that redirect L2-miss service for those
    pages — the profile-based data-to-MC mapping of Figure 23. *)

val load : t -> node:int -> va:int -> bytes:int -> time:int -> stats:Stats.t -> outcome

val store : t -> node:int -> va:int -> bytes:int -> time:int -> stats:Stats.t -> int
(** Write-back of a result to its home L2 bank; returns completion time.
    The writing core does not stall on it. *)

val store_local : t -> node:int -> va:int -> bytes:int -> time:int -> stats:Stats.t -> int
(** Store of a fused intermediate: the line stays in the executing node's
    L1 (coherence invalidations still fire) and no write-back crosses the
    NoC. Legal only when the fusion pass proved every consumer of the
    value runs on this node. *)

val translate : t -> int -> int
(** VA -> PA under the configured page policy. *)

val compiler_translate : t -> int -> int
(** The compiler's view of the translation (see {!Ndp_mem.Page_alloc}). *)

val home_node : t -> va:int -> int
(** Home L2 bank node for a VA (runtime truth). *)

val note_home_lookups : t -> bank:int -> count:int -> unit
(** Account [count] extra [mem.home_lookups{bank}] metric bumps without
    re-translating — used by compiler profiling passes that batch a
    computation the per-candidate code evaluated repeatedly, keeping the
    metric's meaning (lookups the profile pass performs) unchanged. *)

val compiler_home_node : t -> va:int -> int

val compiler_mc_node : t -> va:int -> int

val probe_l2 : t -> va:int -> bool
(** Ground-truth L2 residency; used only by the ideal-data-analysis
    scheme. *)

val l1_probe : t -> node:int -> va:int -> bool

val network : t -> Network.t

val config : t -> Config.t

val mesh : t -> Ndp_noc.Mesh.t
