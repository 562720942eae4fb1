open Ndp_ir

type t = {
  name : string;
  description : string;
  program : Loop.program;
  index_arrays : (string * int array) list;
  hot_arrays : string list;
}

let make ~name ~description ~program ?(index_arrays = []) ?(hot_arrays = []) () =
  { name; description; program; index_arrays; hot_arrays }

let inspector t =
  let insp = Inspector.create () in
  List.iter (fun (name, contents) -> Inspector.declare_index_array insp name contents) t.index_arrays;
  insp

(* Staged on the kernel: resolvers call the returned closure once per
   reference resolution, so the name lookup must be cheap. Declaration
   lists are short and references reuse the parser's interned name
   strings, so a linear scan with a physical-equality fast path beats
   both the old repeated [Array_decl.find] and a string-hashing table.
   The scan is a top-level function, so a resolution allocates no
   closure. *)
let rec find_address decls name i j =
  if j >= Array.length decls then raise Not_found
  else
    let d = decls.(j) in
    if d.Array_decl.name == name || String.equal d.Array_decl.name name then
      Array_decl.address d i
    else find_address decls name i (j + 1)

let address_of t =
  let decls = Array.of_list t.program.Loop.arrays in
  fun name i -> find_address decls name i 0

let hot_ranges t ~budget =
  let add (used, acc) name =
    match List.find_opt (fun d -> d.Array_decl.name = name) t.program.Loop.arrays with
    | None -> (used, acc)
    | Some d ->
      let bytes = d.Array_decl.length * d.Array_decl.elem_size in
      if used + bytes > budget then (used, acc)
      else (used + bytes, (d.Array_decl.base_va, bytes) :: acc)
  in
  let _, acc = List.fold_left add (0, []) t.hot_arrays in
  List.rev acc

let total_statements t = List.length (Loop.all_statements t.program)
