type t = (string * int) list

let empty = []

let bind name value t = (name, value) :: List.remove_assoc name t

let lookup t name = List.assoc_opt name t

(* The hot lookup of subscript evaluation: no option or closure
   allocation, and a physical-equality fast path before the string
   compare (binding and reference names usually share the parser's
   interned strings). *)
let rec get t name =
  match t with
  | [] -> raise Not_found
  | (n, v) :: tl -> if n == name || String.equal n name then v else get tl name

let of_list l = List.fold_left (fun acc (n, v) -> bind n v acc) empty l

let to_list t = List.sort compare t

let pp ppf t =
  let pp_binding ppf (n, v) = Format.fprintf ppf "%s=%d" n v in
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_binding) (to_list t)
