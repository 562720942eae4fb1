type item =
  | Ref of Reference.t
  | Const of float
  | Sub of t

and t = { items : item list; level_ops : Op.t list; reassociable : bool }

(* Only explicit parentheses open a nested set: the paper's Section 4.2
   example classifies x = a*(b+c) + d*(e+f+g) as (a, (b,c), d, (e,f,g)) —
   the unparenthesized operator chain is one level regardless of the mix
   of priorities, and each parenthesized group is a single component whose
   sub-MST is built first. Priority is preserved because a group's partial
   result is complete before the enclosing level combines it. *)
let rec of_expr expr =
  match expr with
  | Expr.Const c -> { items = [ Const c ]; level_ops = []; reassociable = true }
  | Expr.Ref r -> { items = [ Ref r ]; level_ops = []; reassociable = true }
  | Expr.Group e -> of_expr e
  | Expr.Binop _ ->
    (* The level's items and operators prepended onto [items]/[ops],
       walking right to left so both come out left-to-right. *)
    let rec flatten e items ops =
      match e with
      | Expr.Binop (op', a, b) ->
        let items, ops = flatten b items ops in
        flatten a items (op' :: ops)
      | Expr.Const c -> (Const c :: items, ops)
      | Expr.Ref r -> (Ref r :: items, ops)
      | Expr.Group inner -> (
        let sub = of_expr inner in
        match sub.items with
        | [ single ] when sub.level_ops = [] -> (single :: items, ops)
        | _ -> (Sub sub :: items, ops))
    in
    let items, level_ops = flatten expr [] [] in
    let reassociable = List.for_all Op.commutative_associative level_ops in
    { items; level_ops; reassociable }

let rec depth t =
  let item_depth = function
    | Ref _ | Const _ -> 0
    | Sub s -> depth s
  in
  1 + List.fold_left (fun acc i -> max acc (item_depth i)) 0 t.items

let rec all_refs t =
  List.concat_map
    (function
      | Ref r -> [ r ]
      | Const _ -> []
      | Sub s -> all_refs s)
    t.items

let rec count_sets t =
  1
  + List.fold_left
      (fun acc -> function
        | Ref _ | Const _ -> acc
        | Sub s -> acc + count_sets s)
      0 t.items

let rec to_string t =
  let item = function
    | Ref r -> Reference.to_string r
    | Const c -> string_of_float c
    | Sub s -> to_string s
  in
  Printf.sprintf "(%s)" (String.concat ", " (List.map item t.items))
