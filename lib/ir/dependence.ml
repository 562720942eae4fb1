type instance = { stmt_idx : int; stmt : Stmt.t; env : Env.t }

type kind = Flow | Anti | Output

type dep = { src : int; dst : int; kind : kind; may : bool }

type resolver = Reference.t -> Env.t -> int option

type access = { ref_ : Reference.t; addr : int option }

let accesses resolver inst =
  let resolve r = { ref_ = r; addr = resolver r inst.env } in
  (resolve (Stmt.output inst.stmt), List.map resolve (Stmt.inputs inst.stmt))

(* Two accesses conflict when they certainly touch the same element, or when
   either is unresolvable and the arrays match (a may-dependence). *)
let conflict a b =
  if a.ref_.Reference.array <> b.ref_.Reference.array then None
  else
    match (a.addr, b.addr) with
    | Some x, Some y -> if x = y then Some false else None
    | None, _ | _, None -> Some true

(* The per-pair check shared by every analysis path: all dependences
   between the accesses of instance [i] and the later instance [j]. *)
let pair_deps add (wi, ri) (wj, rj) i j =
  (match conflict wi wj with
  | Some may -> add i j Output may
  | None -> ());
  List.iter
    (fun r -> match conflict wi r with Some may -> add i j Flow may | None -> ())
    rj;
  List.iter
    (fun r -> match conflict r wj with Some may -> add i j Anti may | None -> ())
    ri

(* All-pairs scan: every pair [(i, j)] with [i < j <= i + reach], in the
   naive (i, j) order. *)
let scan resolved ~reach =
  let deps = ref [] in
  let add src dst kind may = deps := { src; dst; kind; may } :: !deps in
  let n = Array.length resolved in
  let reach = min reach n in
  for i = 0 to n - 1 do
    for j = i + 1 to min (n - 1) (i + reach) do
      pair_deps add resolved.(i) resolved.(j) i j
    done
  done;
  List.rev !deps

(* A pair can only carry a dependence when some access pair shares an
   array AND the addresses match or a side is unresolvable. So bucket
   resolved accesses by (array, address) and unresolvable ones by array:
   instance j partners instance i when they share an (array, address)
   bucket, or either holds an unresolvable reference to an array the
   other touches. Affine streams then cost O(n * chain length) instead
   of O(n^2). *)
let bucketed resolved =
  let n = Array.length resolved in
  let by_addr : (string * int, int list) Hashtbl.t = Hashtbl.create 64 in
  let by_unresolved : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  let by_array : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  let push tbl key i =
    match Hashtbl.find_opt tbl key with
    | Some (j :: _ as l) -> if j <> i then Hashtbl.replace tbl key (i :: l)
    | Some [] | None -> Hashtbl.replace tbl key [ i ]
  in
  Array.iteri
    (fun i (w, rs) ->
      List.iter
        (fun a ->
          let name = a.ref_.Reference.array in
          push by_array name i;
          match a.addr with
          | Some addr -> push by_addr (name, addr) i
          | None -> push by_unresolved name i)
        (w :: rs))
    resolved;
  (* Bucket lists are descending (consed over increasing i). [mark.(j) = i]
     stamps j as a partner of i exactly once; sorting the stamped partners
     ascending reproduces the all-pairs j order, so the output — order and
     duplicates included — is identical to [scan]'s. *)
  let mark = Array.make n (-1) in
  let deps = ref [] in
  let add src dst kind may = deps := { src; dst; kind; may } :: !deps in
  for i = 0 to n - 1 do
    let js = ref [] in
    let stamp_bucket tbl key =
      match Hashtbl.find_opt tbl key with
      | None -> ()
      | Some l ->
        let rec stamp = function
          | j :: rest when j > i ->
            if mark.(j) <> i then begin
              mark.(j) <- i;
              js := j :: !js
            end;
            stamp rest
          | _ -> ()
        in
        stamp l
    in
    let wi, ri = resolved.(i) in
    List.iter
      (fun a ->
        let name = a.ref_.Reference.array in
        (match a.addr with
        | Some addr -> stamp_bucket by_addr (name, addr)
        | None ->
          (* Unresolvable: may-conflicts with every access to the array. *)
          stamp_bucket by_array name);
        stamp_bucket by_unresolved name)
      (wi :: ri);
    List.iter
      (fun j -> pair_deps add resolved.(i) resolved.(j) i j)
      (List.sort compare !js)
  done;
  List.rev !deps

let analyze ?band resolver instances =
  let resolved = Array.of_list (List.map (accesses resolver) instances) in
  let n = Array.length resolved in
  match band with
  | Some band ->
    if band < 1 then invalid_arg "Dependence.analyze: band must be positive";
    scan resolved ~reach:(band - 1)
  | None ->
    (* Compilation windows are a handful of instances; the all-pairs scan
       beats paying three hashtable setups, and the bucketed path
       reproduces its output exactly, so the dispatch is invisible. *)
    if n <= 12 then scan resolved ~reach:n else bucketed resolved

let kind_to_string = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

type index = (int * int, unit) Hashtbl.t

let index_deps deps =
  let tbl = Hashtbl.create (max 16 (List.length deps)) in
  List.iter (fun d -> Hashtbl.replace tbl (d.src, d.dst) ()) deps;
  tbl

let serialized index ~src ~dst = Hashtbl.mem index (src, dst)

let must_serialize deps ~src ~dst = serialized (index_deps deps) ~src ~dst
