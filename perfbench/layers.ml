(* Per-layer measurements: phase self times from span logs, simulator
   counters summed over results, the partitioner's decisions, and the
   reconciliation of traced phases with request time. *)

module Json = Ndp_obs.Render.Json

let int_field k j = match Json.member k j with Some (Json.Int i) -> i | _ -> -1

let float_field k j =
  match Json.member k j with Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> 0.0

let str_field k j = match Json.member k j with Some (Json.Str s) -> s | _ -> ""

(* [(name, self ms)] per span of the collector, in recording order. A
   span's self time is its duration minus the part its child spans
   cover. *)
let self_times spans =
  match Json.member "spans" (Ndp_obs.Span.to_json spans) with
  | Some (Json.List nodes) ->
    let n = List.length nodes in
    let child_ms = Array.make (max 1 n) 0.0 in
    List.iter
      (fun node ->
        let p = int_field "parent" node in
        if p >= 0 && p < n then child_ms.(p) <- child_ms.(p) +. float_field "ms" node)
      nodes;
    List.map
      (fun node ->
        let id = int_field "id" node in
        let c = if id >= 0 && id < n then child_ms.(id) else 0.0 in
        (str_field "name" node, Float.max 0.0 (float_field "ms" node -. c)))
      nodes
  | _ -> []

(* Running per-name totals of self time. *)
type acc = (string, float) Hashtbl.t

let create () : acc = Hashtbl.create 16

let add (acc : acc) name ms =
  Hashtbl.replace acc name (ms +. Option.value (Hashtbl.find_opt acc name) ~default:0.0)

let absorb acc spans = List.iter (fun (name, ms) -> add acc name ms) (self_times spans)

let total (acc : acc) name = Option.value (Hashtbl.find_opt acc name) ~default:0.0

let sum (acc : acc) names = List.fold_left (fun s n -> s +. total acc n) 0.0 names

(* The program's phase spans under [Pipeline.Job.run] (and the serve
   daemon's "render" and "replay"). *)
let compile_phases = [ "parse"; "window"; "deps"; "fusion"; "schedule" ]

(* The daemon's sweep replays are simulation alone, so their span counts
   as simulate. *)
let sim_phases = [ "simulate"; "replay" ]

let program_phases = compile_phases @ sim_phases @ [ "render" ]

(* Time a traced run left outside every phase span, as a percentage of
   the request time measured around the calls. The traced run is
   accepted only when the phases account for all but 5% of it. *)
let unattributed_pct ~request_ms ~phase_ms =
  if request_ms <= 0.0 then 0.0 else 100.0 *. (request_ms -. phase_ms) /. request_ms

let reconcile_limit_pct = 5.0

(* Memory, network and simulator counters summed over a set of
   simulations, for the hit rates and averages of the per-layer table.
   Counters go by their [Stats.to_alist] names, which are also the keys
   of a rendered result's "stats" object. *)
module Sim = struct
  module Stats = Ndp_sim.Stats

  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let get (t : t) k = Option.value (Hashtbl.find_opt t k) ~default:0

  let add_alist (t : t) kvs = List.iter (fun (k, v) -> Hashtbl.replace t k (v + get t k)) kvs

  let add t s = add_alist t (Stats.to_alist s)

  let add_json t = function
    | Json.Obj kvs -> add_alist t (List.filter_map (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None) kvs)
    | _ -> ()

  let report t (r : Report.t) =
    let rate hits misses =
      let h = get t hits and m = get t misses in
      if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
    in
    Report.add r "mem.l1_hit_rate" "ratio" (rate "l1_hits" "l1_misses");
    Report.add r "mem.l2_hit_rate" "ratio" (rate "l2_hits" "l2_misses");
    Report.add r "noc.avg_latency" "cycles"
      (if get t "messages" = 0 then 0.0 else float_of_int (get t "latency_sum") /. float_of_int (get t "messages"));
    Report.add r "sim.load_wait_cycles" "cycles" (float_of_int (get t "load_wait"));
    Report.add r "sim.tasks" "count" (float_of_int (get t "tasks"))
end

(* The partitioned compiles' decisions: surviving sync arcs, L2-miss
   predictor accuracy, and the compiler's movement estimate against the
   measured flit-hops (geometric mean of the symmetric divergence). *)
let decisions (r : Report.t) (parts : Ndp_core.Pipeline.result list) =
  let module P = Ndp_core.Pipeline in
  let module Config = Ndp_sim.Config in
  Report.add r "core.sync_arcs" "count" (float_of_int (List.fold_left (fun s x -> s + x.P.sync_arcs) 0 parts));
  Report.add r "mem.predictor_accuracy" "ratio" (Pct.mean (List.map (fun x -> x.P.predictor_accuracy) parts));
  let line_flits = Config.flits_of_bytes Config.default Config.default.Config.line_bytes in
  Report.add r "core.movement_divergence" "ratio"
    (Pct.geomean
       (List.map
          (fun x ->
            Ndp_serve.Service.divergence_ratio ~static:(x.P.est_movement_total * line_flits)
              ~measured:(Sim.Stats.hops x.P.stats))
          parts))

(* Tracing overhead (traced against untraced median request time) and
   the reconciliation of phase self times with traced request time,
   which must agree within [reconcile_limit_pct]. *)
let reconcile (r : Report.t) ~lat_ms ~lat_traced_ms ~phase_ms =
  let untraced = Pct.median lat_ms in
  Report.add r "trace.overhead_pct" "%"
    (if untraced > 0.0 then 100.0 *. ((Pct.median lat_traced_ms /. untraced) -. 1.0) else 0.0);
  let gap = unattributed_pct ~request_ms:(Pct.sum lat_traced_ms) ~phase_ms in
  Report.add r "trace.unattributed_pct" "%" gap;
  if gap > reconcile_limit_pct then
    Report.problem r (Printf.sprintf "phase spans leave %.1f%% of traced request time unattributed" gap)
