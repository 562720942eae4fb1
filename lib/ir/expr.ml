type t =
  | Const of float
  | Ref of Reference.t
  | Binop of Op.t * t * t
  | Group of t

(* Both walk right to left onto an accumulator, so each list is built
   once, left-to-right, without [@] copies. *)
let refs e =
  let rec go e acc =
    match e with
    | Const _ -> acc
    | Ref r -> r :: acc
    | Binop (_, a, b) -> go a (go b acc)
    | Group e -> go e acc
  in
  go e []

let ops e =
  let rec go e acc =
    match e with
    | Const _ | Ref _ -> acc
    | Binop (op, a, b) -> go a (op :: go b acc)
    | Group e -> go e acc
  in
  go e []

let op_count e = List.length (ops e)

let rec to_string = function
  | Const c -> if Float.is_integer c then string_of_int (int_of_float c) else string_of_float c
  | Ref r -> Reference.to_string r
  | Binop (op, a, b) -> Printf.sprintf "%s %s %s" (to_string a) (Op.to_string op) (to_string b)
  | Group e -> Printf.sprintf "(%s)" (to_string e)
