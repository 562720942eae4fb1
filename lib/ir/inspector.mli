(** Inspector–executor support for indirect array accesses (Section 4.5).

    Loop-dominated irregular applications iterate an outer timing loop; the
    inspector runs over its first iterations, records the values of index
    arrays, and the executor phase then schedules subcomputations with that
    may-dependence information. Before [run] the resolver answers [None]
    for indirect references (conservative may-deps); afterwards it resolves
    them exactly. *)

type t

val create : unit -> t

val declare_index_array : t -> string -> int array -> unit
(** Register the runtime contents of an index array. *)

val run : t -> unit
(** Mark the inspector phase complete. *)

val lookup : t -> string -> int -> int
(** Ground-truth index-array read (always available to the {e runtime}).
    Raises [Not_found] for undeclared arrays; indices wrap. *)

val runtime_resolver : t -> address_of:(string -> int -> int) -> Dependence.resolver
(** Resolves every reference using ground truth — what the hardware does. *)

val compiler_resolver : t -> address_of:(string -> int -> int) -> Dependence.resolver
(** Resolves affine references always, indirect references only once [run]
    has been called — what the compiler knows. *)
