type t = { index_arrays : (string, int array) Hashtbl.t; mutable ran : bool }

let create () = { index_arrays = Hashtbl.create 8; ran = false }

let declare_index_array t name contents = Hashtbl.replace t.index_arrays name contents

let run t = t.ran <- true

let lookup t name i =
  match Hashtbl.find_opt t.index_arrays name with
  | None -> raise Not_found
  | Some a ->
    let n = Array.length a in
    a.(((i mod n) + n) mod n)

(* The resolvers are staged on their first two arguments: [make_context]
   partially applies them once, and every subsequent resolution reuses the
   same closure instead of re-building [lookup t] per reference. *)
let runtime_resolver t ~address_of =
  let lk = lookup t in
  fun (r : Reference.t) env ->
    try Some (address_of r.array (Subscript.eval ~lookup:lk env r.subscript))
    with Not_found -> None

let compiler_resolver t ~address_of =
  let resolve = runtime_resolver t ~address_of in
  fun (r : Reference.t) env ->
    if Reference.analyzable r || t.ran then resolve r env else None
