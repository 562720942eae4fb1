(** Dependence analysis over statement instances.

    The partitioner works on concrete statement instances (a statement in a
    given loop iteration), so dependences are computed by resolving each
    reference to the element it touches. References a resolver cannot
    analyze (indirect subscripts without inspector data) yield conservative
    {e may}-dependences against every access to the same array. *)

type instance = {
  stmt_idx : int; (** position of the statement in program order *)
  stmt : Stmt.t;
  env : Env.t;
}

type kind = Flow | Anti | Output

type dep = {
  src : int; (** index into the analyzed instance list *)
  dst : int;
  kind : kind;
  may : bool; (** [true] when at least one side was unresolvable *)
}

type resolver = Reference.t -> Env.t -> int option
(** Maps a reference under an iteration environment to the address of the
    element it touches; [None] when not compile-time analyzable. *)

val analyze : ?band:int -> resolver -> instance list -> dep list
(** All pairwise dependences with [src < dst], in list order: ascending
    [src], then ascending [dst], then output, flow and anti dependences of
    the pair — exactly what comparing every instance pair would emit.

    With [band], only pairs with [dst - src < band] are compared, by an
    all-pairs scan over each instance's [band - 1] successors, so the cost
    grows with n x band. A consumer that reads only pairs inside chunks of
    at most [band] consecutive instances (a compiled window) loses
    nothing. [band] must be positive.

    Without [band], accesses are pre-bucketed by (array, resolved address)
    — unresolvable ones by array name — so only pairs that can actually
    conflict are compared; affine streams cost O(n * dependence-chain
    length) instead of O(n{^ 2}). *)

val kind_to_string : kind -> string

type index
(** Precomputed (src, dst) lookup over a dependence list. *)

val index_deps : dep list -> index
(** O(n) construction; queries through {!serialized} are O(1). *)

val serialized : index -> src:int -> dst:int -> bool
(** Whether any dependence orders the two instances. *)

val must_serialize : dep list -> src:int -> dst:int -> bool
(** Whether any dependence orders the two instances. Thin wrapper that
    builds a throwaway {!index}; callers with repeated queries against one
    dependence list should build the index once via {!index_deps}. *)
