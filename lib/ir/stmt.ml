type t = {
  lhs : Reference.t;
  rhs : Expr.t;
  inputs : Reference.t list;
  ops : Op.t list;
  nested : Nested_set.t;
}

(* The shape fields depend only on [rhs], so they are derived once here
   rather than on every statement instance the compiler visits. *)
let make lhs rhs =
  { lhs; rhs; inputs = Expr.refs rhs; ops = Expr.ops rhs; nested = Nested_set.of_expr rhs }

let inputs t = t.inputs

let ops t = t.ops

let nested t = t.nested

let output t = t.lhs

let to_string t = Printf.sprintf "%s = %s" (Reference.to_string t.lhs) (Expr.to_string t.rhs)

let analyzable_fraction t =
  let all = t.lhs :: inputs t in
  let ok = List.filter Reference.analyzable all in
  (float_of_int (List.length ok), float_of_int (List.length all))
