(* Deterministic fault-injection plans.

   All randomness is spent here, at construction time, through the seeded
   splitmix64 generator; the accessors the simulator calls are pure reads
   over immutable arrays (the distance memo table is write-once per cell),
   which is what makes fault runs reproducible across [--jobs] values. *)

module Mesh = Ndp_noc.Mesh
module Rng = Ndp_prelude.Rng

type t = {
  mesh : Mesh.t;
  seed : int;
  retry_timeout : int;
  max_retries : int;
  killed : bool array; (* by Mesh.link_index *)
  factor : float array; (* service-time multiplier, by Mesh.link_index *)
  stalls : (int * int) list array; (* per node, sorted (start, len) *)
  mc_mult : float array; (* per node; > 1.0 only on MC nodes *)
  avoided : bool array; (* per node *)
  dist : int array; (* n*n memo; -1 = not yet computed *)
}

let seed t = t.seed
let retry_timeout t = t.retry_timeout
let max_retries t = t.max_retries
let link_killed t i = t.killed.(i)
let link_factor t i = t.factor.(i)
let mc_factor t node = t.mc_mult.(node)

let is_empty t =
  (not (Array.exists Fun.id t.killed))
  && (not (Array.exists (fun f -> f <> 1.0) t.factor))
  && Array.for_all (fun ws -> ws = []) t.stalls
  && not (Array.exists (fun f -> f <> 1.0) t.mc_mult)

let stall_until t ~node ~time =
  let rec skip time = function
    | [] -> time
    | (start, len) :: rest ->
        if time < start then time
        else if time < start + len then skip (start + len) rest
        else skip time rest
  in
  skip time t.stalls.(node)

let avoided t node = t.avoided.(node)

let avoided_nodes t =
  let acc = ref [] in
  for node = Array.length t.avoided - 1 downto 0 do
    if t.avoided.(node) then acc := node :: !acc
  done;
  !acc

(* Cost of one link, in "hop" units, as seen by the repair planner. A
   killed link costs the full retry penalty converted to hops assuming the
   default 16-cycle hop, so the MST planner treats crossing it as roughly
   as expensive as the simulator will make it. *)
let link_weight t link =
  let i = Mesh.link_index t.mesh link in
  if t.killed.(i) then max 4 (t.max_retries * t.retry_timeout / 16)
  else int_of_float (ceil t.factor.(i))

let distance t u v =
  if u = v then 0
  else
    let n = Mesh.size t.mesh in
    let cell = (u * n) + v in
    let cached = t.dist.(cell) in
    if cached >= 0 then cached
    else begin
      let cost =
        List.fold_left
          (fun acc link -> acc + link_weight t link)
          0
          (Mesh.xy_route t.mesh ~src:u ~dst:v)
      in
      t.dist.(cell) <- cost;
      cost
    end

let counts t =
  let undirected pred =
    let k = ref 0 in
    List.iter
      (fun link ->
        if link.Mesh.from_node < link.Mesh.to_node && pred link then incr k)
      (Mesh.links t.mesh);
    !k
  in
  let killed = undirected (fun l -> t.killed.(Mesh.link_index t.mesh l)) in
  let degraded =
    undirected (fun l ->
        let i = Mesh.link_index t.mesh l in
        (not t.killed.(i)) && t.factor.(i) <> 1.0)
  in
  let stalled = Array.fold_left (fun n ws -> if ws <> [] then n + 1 else n) 0 t.stalls in
  let mcs = Array.fold_left (fun n f -> if f <> 1.0 then n + 1 else n) 0 t.mc_mult in
  (killed, degraded, stalled, mcs)

let describe t =
  let buf = Buffer.create 128 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  add "seed=%d retry_timeout=%d max_retries=%d" t.seed t.retry_timeout
    t.max_retries;
  List.iter
    (fun link ->
      if link.Mesh.from_node < link.Mesh.to_node then begin
        let i = Mesh.link_index t.mesh link in
        if t.killed.(i) then
          add "; kill %d<->%d" link.Mesh.from_node link.Mesh.to_node
        else if t.factor.(i) <> 1.0 then
          add "; slow %d<->%d x%g" link.Mesh.from_node link.Mesh.to_node
            t.factor.(i)
      end)
    (Mesh.links t.mesh);
  Array.iteri
    (fun node ws ->
      List.iter (fun (s, l) -> add "; stall %d@%d+%d" node s l) ws)
    t.stalls;
  Array.iteri
    (fun node f -> if f <> 1.0 then add "; mc %d x%g" node f)
    t.mc_mult;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

type event =
  | Kill_links of int
  | Kill_link of int * int
  | Degrade_links of int * float
  | Degrade_link of int * int * float
  | Stall of int * int * int
  | Mc_slow of int * float

let both_directions mesh a b =
  if Mesh.distance mesh a b <> 1 then
    invalid_arg
      (Printf.sprintf "Ndp_fault.Plan: nodes %d and %d are not adjacent" a b);
  [
    Mesh.link_index mesh { Mesh.from_node = a; to_node = b };
    Mesh.link_index mesh { Mesh.from_node = b; to_node = a };
  ]

(* Undirected links as (low, high) node pairs, in deterministic order. *)
let undirected_pairs mesh =
  Mesh.links mesh
  |> List.filter (fun l -> l.Mesh.from_node < l.Mesh.to_node)
  |> List.map (fun l -> (l.Mesh.from_node, l.Mesh.to_node))
  |> Array.of_list

(* Bounds on what a plan may ask of the simulator. A factor outside
   [1, 100] (nan included) would let a fault speed the machine up or blow
   latencies past anything the cost model was built for, and the network
   sizes its per-link utilization arrays by the largest simulated time it
   sees, so a stall ending far out would allocate without bound. The
   largest factor any shipped spec uses is 4 and the longest stall 200000
   cycles. *)
let max_factor = 100.0

let max_stall_end = 1 lsl 20

let check_factor what f =
  (* Written as a positive range test so nan fails it. *)
  if not (f >= 1.0 && f <= max_factor) then
    invalid_arg (Printf.sprintf "Ndp_fault.Plan: %s factor %g not in [1, %g]" what f max_factor)

let make ~mesh ~seed ?(retry_timeout = 256) ?(max_retries = 3) events =
  if retry_timeout <= 0 then invalid_arg "Ndp_fault.Plan: retry_timeout <= 0";
  if max_retries <= 0 then invalid_arg "Ndp_fault.Plan: max_retries <= 0";
  let n = Mesh.size mesh in
  let num_links = Mesh.num_links mesh in
  let killed = Array.make num_links false in
  let factor = Array.make num_links 1.0 in
  let stalls = Array.make n [] in
  let mc_mult = Array.make n 1.0 in
  let rng = Rng.create seed in
  let pick_fresh count =
    (* [count] seed-chosen undirected links that carry no fault yet. *)
    let pairs = undirected_pairs mesh in
    Rng.shuffle rng pairs;
    let chosen = ref [] and taken = ref 0 and i = ref 0 in
    while !taken < count && !i < Array.length pairs do
      let a, b = pairs.(!i) in
      let idx = Mesh.link_index mesh { Mesh.from_node = a; to_node = b } in
      if (not killed.(idx)) && factor.(idx) = 1.0 then begin
        chosen := (a, b) :: !chosen;
        incr taken
      end;
      incr i
    done;
    List.rev !chosen
  in
  let apply = function
    | Kill_link (a, b) ->
        List.iter (fun i -> killed.(i) <- true) (both_directions mesh a b)
    | Kill_links count ->
        List.iter
          (fun (a, b) ->
            List.iter (fun i -> killed.(i) <- true) (both_directions mesh a b))
          (pick_fresh count)
    | Degrade_link (a, b, f) ->
        check_factor "degrade" f;
        List.iter (fun i -> factor.(i) <- f) (both_directions mesh a b)
    | Degrade_links (count, f) ->
        check_factor "degrade" f;
        List.iter
          (fun (a, b) ->
            List.iter (fun i -> factor.(i) <- f) (both_directions mesh a b))
          (pick_fresh count)
    | Stall (node, start, len) ->
        if node < 0 || node >= n then
          invalid_arg "Ndp_fault.Plan: stall node out of range";
        if start < 0 || len <= 0 || len > max_stall_end - start then
          invalid_arg
            (Printf.sprintf "Ndp_fault.Plan: stall window must lie in [0, %d]" max_stall_end);
        stalls.(node) <- (start, len) :: stalls.(node)
    | Mc_slow (node, f) ->
        if node < 0 || node >= n then
          invalid_arg "Ndp_fault.Plan: mc node out of range";
        check_factor "mc" f;
        mc_mult.(Mesh.nearest_mc mesh node) <- f
  in
  List.iter apply events;
  Array.iteri
    (fun node ws ->
      stalls.(node) <- List.sort (fun (a, _) (b, _) -> compare a b) ws)
    stalls;
  let avoided = Array.make n false in
  for node = 0 to n - 1 do
    let isolated =
      List.for_all
        (fun link ->
          link.Mesh.from_node <> node || killed.(Mesh.link_index mesh link))
        (Mesh.links mesh)
    in
    avoided.(node) <- stalls.(node) <> [] || isolated
  done;
  {
    mesh;
    seed;
    retry_timeout;
    max_retries;
    killed;
    factor;
    stalls;
    mc_mult;
    avoided;
    dist = Array.make (n * n) (-1);
  }

let empty ~mesh = make ~mesh ~seed:0 []

(* ------------------------------------------------------------------ *)
(* Spec mini-language                                                  *)

let parse ~mesh ~seed ?retry_timeout ?max_retries spec =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some n -> Ok n
    | None -> fail "expected an integer, got %S" s
  in
  let float_of s =
    match float_of_string_opt (String.trim s) with
    | Some f -> Ok f
    | None -> fail "expected a number, got %S" s
  in
  let ( let* ) r f = Result.bind r f in
  (* A>B link endpoint pair. *)
  let pair_of s =
    match String.split_on_char '>' s with
    | [ a; b ] ->
        let* a = int_of a in
        let* b = int_of b in
        Ok (a, b)
    | _ -> fail "expected A>B, got %S" s
  in
  let item s =
    match String.index_opt s '=' with
    | None -> fail "fault item %S lacks '='" s
    | Some eq -> (
        let key = String.sub s 0 eq in
        let value = String.sub s (eq + 1) (String.length s - eq - 1) in
        match key with
        | "kill" ->
            if String.contains value '>' then
              let* a, b = pair_of value in
              Ok (Kill_link (a, b))
            else
              let* n = int_of value in
              Ok (Kill_links n)
        | "slow" -> (
            match String.rindex_opt value 'x' with
            | None -> fail "slow=%s lacks an xFACTOR suffix" value
            | Some i ->
                let target = String.sub value 0 i in
                let f = String.sub value (i + 1) (String.length value - i - 1) in
                let* f = float_of f in
                if String.contains target '>' then
                  let* a, b = pair_of target in
                  Ok (Degrade_link (a, b, f))
                else
                  let* n = int_of target in
                  Ok (Degrade_links (n, f)))
        | "stall" -> (
            match String.index_opt value '@' with
            | None -> fail "stall=%s lacks @START+LEN" value
            | Some at -> (
                let node = String.sub value 0 at in
                let window =
                  String.sub value (at + 1) (String.length value - at - 1)
                in
                match String.index_opt window '+' with
                | None -> fail "stall window %S lacks +LEN" window
                | Some plus ->
                    let* node = int_of node in
                    let* start = int_of (String.sub window 0 plus) in
                    let* len =
                      int_of
                        (String.sub window (plus + 1)
                           (String.length window - plus - 1))
                    in
                    Ok (Stall (node, start, len))))
        | "mc" -> (
            match String.rindex_opt value 'x' with
            | None -> fail "mc=%s lacks an xFACTOR suffix" value
            | Some i ->
                let* node = int_of (String.sub value 0 i) in
                let* f =
                  float_of
                    (String.sub value (i + 1) (String.length value - i - 1))
                in
                Ok (Mc_slow (node, f)))
        | other -> fail "unknown fault kind %S" other)
  in
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        let* ev = item s in
        collect (ev :: acc) rest
  in
  let* events = collect [] items in
  match make ~mesh ~seed ?retry_timeout ?max_retries events with
  | plan -> Ok plan
  | exception Invalid_argument msg -> Error msg
