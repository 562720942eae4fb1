(** Data location detection (Section 4.1) — the [GetNode] function of
    Algorithm 1.

    For an analyzable reference the compiler resolves the virtual address,
    translates it under the page-coloring assumption, and asks the L2 miss
    predictor whether the home bank or the servicing memory controller
    should count as the data's location. The variable2node map overrides
    both when an earlier subcomputation in the window already fetched the
    line into some node's L1. *)

type t = Context.location = {
  ref_ : Ndp_ir.Reference.t;
  node : int; (** compile-time location on the mesh *)
  in_l1 : bool; (** found in the variable2node map *)
  predicted_hit : bool option; (** [Some] when the predictor was consulted *)
  va : int option; (** virtual address, when resolvable at compile time *)
  bytes : int;
}

val locate :
  Context.t -> store_node:int -> Ndp_ir.Reference.t -> Ndp_ir.Env.t -> t
(** References the compiler cannot resolve are pinned to [store_node],
    matching default execution for that operand. *)

val line_of : Context.t -> int -> int
(** Cache-line number of a virtual address. *)
