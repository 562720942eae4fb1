(* What one benchmark run reports: named metrics with units, and the
   count of operations attempted and failed by the output checks. *)

module Json = Ndp_obs.Render.Json

type metric = { name : string; unit_ : string; value : float }

type t = {
  mutable metrics : metric list; (* reverse insertion order *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list; (* reverse order; the first few are printed *)
  quiet : bool; (* print no problems (the self-tests provoke them) *)
}

let create ?(quiet = false) () = { metrics = []; attempted = 0; failed = 0; problems = []; quiet }

(* Metric names start with a letter or digit and use only
   [A-Za-z0-9_.-], at most 64 characters. *)
let valid_name s =
  let ok_char c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  let n = String.length s in
  n >= 1
  && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let add t name unit_ value =
  if not (valid_name name) then invalid_arg ("Report.add: bad metric name " ^ name);
  t.metrics <- { name; unit_; value } :: List.filter (fun m -> m.name <> name) t.metrics

let problem t msg =
  t.problems <- msg :: t.problems;
  if (not t.quiet) && List.length t.problems <= 20 then Printf.eprintf "perfbench: check failed: %s\n%!" msg

(* One checked operation: counted as attempted, and as failed unless every
   output check on it held. *)
let op t ok ~what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    problem t what
  end

let correct t = t.attempted > 0 && t.failed = 0 && t.problems = []

let to_json t =
  Json.Obj
    [
      ("correct", Json.Bool (correct t));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ( "metrics",
        Json.Obj
          (List.rev_map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
             t.metrics) );
    ]

let print_table t =
  List.iter (fun m -> Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit_) (List.rev t.metrics)

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)

let now = Unix.gettimeofday

(* Words allocated so far on this domain. [Gc.minor_words] is exact at
   any moment; the major-heap count (blocks too large for the minor heap,
   less the promoted words that the minor count already holds) is only
   brought up to date by a collection, so a figure summed over many calls
   is exact to within one collection, while a single small call may read
   only its minor words. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Peak resident set of a process in MB, from /proc (Linux). *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              Some (float_of_int kb /. 1024.0))
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* The end-to-end latency block shared by every workload: median, the
   90th percentile (only with ten samples beyond it) and throughput. *)
let latency t ~lat_ms ~elapsed_s =
  let n = List.length lat_ms in
  let pct q =
    match Pct.percentile q lat_ms with
    | Ok v -> v
    | Error msg ->
      problem t msg;
      let a = Pct.sorted lat_ms in
      if n = 0 then 0.0 else a.(Pct.rank q n - 1)
  in
  add t "req_ms_p50" "ms" (pct 0.5);
  add t "req_ms_p90" "ms" (pct 0.9);
  add t "req_per_s" "1/s" (float_of_int n /. elapsed_s);
  Printf.printf "  %d timed requests in %.2f s\n" n elapsed_s

(* 1 - failed_ratio: the share of checked operations that passed. It is
   reported this way round so that the figure is never 0. *)
let ok_ratio t =
  add t "ok_ratio" "ratio" (if t.attempted = 0 then 0.0 else float_of_int (t.attempted - t.failed) /. float_of_int t.attempted)

(* The paper's product metrics: partitioned against default flit-hops and
   cycles, per kernel, as [(kernel, (default hops, default cycles),
   (partitioned hops, partitioned cycles))]. *)
let product t rows =
  let hops = List.map (fun (_, (dh, _), (ph, _)) -> float_of_int ph /. float_of_int (max 1 dh)) rows in
  let cycles = List.map (fun (_, (_, dc), (_, pc)) -> float_of_int pc /. float_of_int (max 1 dc)) rows in
  let worst, worst_ratio =
    List.fold_left2 (fun (wn, wr) (name, _, _) r -> if r > wr then (name, r) else (wn, wr)) ("", 0.0) rows hops
  in
  add t "hops_ratio_geomean" "ratio" (Pct.geomean hops);
  add t "hops_ratio_max" "ratio" worst_ratio;
  add t "cycles_ratio_geomean" "ratio" (Pct.geomean cycles);
  Printf.printf "  partitioned/default over %d pairs: worst flit-hops ratio %.4f (%s)\n"
    (List.length rows) worst_ratio worst

(* Run a workload's set-up [reps] times and report the median wall time
   as setup_s. Each later repetition is handed to [check] with the first
   one (so set-up must be deterministic) and then dropped. *)
let setup t ~reps f check =
  let timed () =
    let t0 = now () in
    let x = f () in
    (now () -. t0, x)
  in
  let t1, first = timed () in
  let rest =
    List.init (reps - 1) (fun _ ->
        let dt, x = timed () in
        check first x;
        dt)
  in
  add t "setup_s" "s" (Pct.median (t1 :: rest));
  first
