(** A loop-body statement [lhs = rhs].

    The statement's shape — its input references, operator list and
    nested set — is a function of [rhs] alone, so {!make} (the only
    constructor) builds it once and every instance of the statement
    shares it. *)

type t = private {
  lhs : Reference.t;
  rhs : Expr.t;
  inputs : Reference.t list; (** [Expr.refs rhs] *)
  ops : Op.t list; (** [Expr.ops rhs] *)
  nested : Nested_set.t; (** [Nested_set.of_expr rhs] *)
}

val make : Reference.t -> Expr.t -> t

val inputs : t -> Reference.t list
(** References read by the statement (the [V_i] of Equation 1). *)

val ops : t -> Op.t list
(** Operators of the right-hand side, left-to-right. *)

val nested : t -> Nested_set.t
(** The right-hand side's nested variable sets (Algorithm 1, line 5). *)

val output : t -> Reference.t

val to_string : t -> string

val analyzable_fraction : t -> float * float
(** [(analyzable, total)] reference counts including the output. *)
