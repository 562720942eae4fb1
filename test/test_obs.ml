(* Observability subsystem: registry semantics, trace ring behaviour, Chrome-JSON well-formedness, and
   the no-perturbation guarantee (observed runs byte-identical to
   unobserved ones). *)

module M = Ndp_obs.Metrics
module T = Ndp_obs.Trace
module L = Ndp_obs.Ledger
module TL = Ndp_obs.Timeline
module Sink = Ndp_obs.Sink
module P = Ndp_core.Pipeline
module Stats = Ndp_sim.Stats
module Pool = Ndp_prelude.Pool

let water () = Ndp_workloads.Suite.find "water"

(* {1 JSON}

   Emitted documents are read back with the library's own parser;
   [parse_json] fails the test on malformed input. *)
module Json = Ndp_obs.Render.Json

let parse_json s = match Json.parse s with Ok v -> v | Error m -> Alcotest.fail ("json: " ^ m)

let str = function Some (Json.Str s) -> s | _ -> Alcotest.fail "json: expected string"

let num = function
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> Alcotest.fail "json: expected number"

(* {1 Registry} *)

let registry_instruments () =
  let reg = M.create () in
  let c = M.counter reg "a.count" in
  M.add c 5;
  M.incr c;
  Alcotest.(check int) "counter value" 6 (M.counter_value c);
  let v = M.vec reg "a.vec" ~size:3 ~label:(fun i -> Printf.sprintf "slot=%d" i) in
  M.vadd v 0 2;
  M.vadd v 2 7;
  M.vadd v 99 1 (* out of range: ignored *);
  Alcotest.(check int) "vec slot" 7 (M.vec_value v 2);
  let g = M.gauge reg "a.gauge" in
  M.set_gauge g 1.5;
  M.gauge_fn reg "a.derived" (fun () -> 42.0);
  let h = M.histogram reg "a.hist" in
  M.observe h 3.0;
  M.observe h 5.0;
  let names = List.map fst (M.to_alist reg) in
  Alcotest.(check (list string)) "exploded, name-sorted"
    [ "a.count"; "a.derived"; "a.gauge"; "a.hist"; "a.vec{slot=0}"; "a.vec{slot=2}" ]
    names;
  (match M.find reg "a.vec{slot=2}" with
  | Some (M.Counter_v 7) -> ()
  | _ -> Alcotest.fail "find on exploded vec slot");
  match M.find reg "a.hist" with
  | Some (M.Histogram_v h) ->
    Alcotest.(check int) "hist count" 2 h.count;
    Alcotest.(check (float 1e-9)) "hist sum" 8.0 h.sum
  | _ -> Alcotest.fail "find histogram"

let registry_same_name_same_handle () =
  let reg = M.create () in
  let a = M.counter reg "x" and b = M.counter reg "x" in
  M.add a 3;
  M.add b 4;
  Alcotest.(check int) "shared storage" 7 (M.counter_value a)

let disabled_inert () =
  Alcotest.(check bool) "disabled flag" false (M.enabled M.disabled);
  let c = M.counter M.disabled "dead.count" in
  let v = M.vec M.disabled "dead.vec" ~size:4 ~label:string_of_int in
  let h = M.histogram M.disabled "dead.hist" in
  M.add c 10;
  M.vadd v 1 10;
  M.observe h 10.0;
  M.set_gauge (M.gauge M.disabled "dead.gauge") 1.0;
  Alcotest.(check int) "dead counter stays zero" 0 (M.counter_value c);
  Alcotest.(check (list string)) "nothing registered" [] (List.map fst (M.to_alist M.disabled))

(* {1 Tracer} *)

let ring_overflow () =
  let t = T.create ~capacity:4 () in
  for i = 0 to 9 do
    T.task t ~name:"t" ~node:0 ~start:i ~finish:(i + 1) ~id:i ~group:0
  done;
  Alcotest.(check int) "length" 4 (T.length t);
  Alcotest.(check int) "total" 10 (T.total t);
  Alcotest.(check int) "dropped" 6 (T.dropped t);
  Alcotest.(check (list int)) "newest survive" [ 6; 7; 8; 9 ]
    (List.map (fun (e : T.event) -> e.T.id) (T.events t))

let trace_chrome_well_formed () =
  let obs = Sink.create ~metrics:true ~trace:true () in
  let r = P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  Alcotest.(check int) "nothing dropped" 0 (T.dropped obs.Sink.trace);
  let doc = parse_json (T.to_chrome obs.Sink.trace) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List es) -> es
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check bool) "events present" true (events <> []);
  let last_ts = ref (-1.0) in
  let tasks = ref 0 in
  let max_task_end = ref 0.0 in
  List.iter
    (fun e ->
      let ts = num (Json.member "ts" e) in
      Alcotest.(check bool) "ts monotone" true (ts >= !last_ts);
      last_ts := ts;
      match str (Json.member "ph" e) with
      | "X" ->
        let dur = num (Json.member "dur" e) in
        Alcotest.(check bool) "dur non-negative" true (dur >= 0.0);
        if str (Json.member "cat" e) = "task" then begin
          incr tasks;
          if ts +. dur > !max_task_end then max_task_end := ts +. dur
        end
      | "i" -> Alcotest.(check string) "sync cat" "sync" (str (Json.member "cat" e))
      | ph -> Alcotest.fail ("unexpected phase " ^ ph))
    events;
  (* The trace must reconcile with the aggregate stats: one complete event
     per executed task, ending at the simulated finish time. *)
  Alcotest.(check int) "task events == Stats.tasks" (Stats.tasks r.P.stats) !tasks;
  Alcotest.(check int) "last task ends at finish_time" (Stats.finish_time r.P.stats)
    (int_of_float !max_task_end)

let trace_jsonl_lines_parse () =
  let obs = Sink.create ~metrics:false ~trace:true () in
  ignore (P.Job.run ~obs (P.Job.make P.Default (water ())));
  let lines =
    String.split_on_char '\n' (T.to_jsonl obs.Sink.trace)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (T.length obs.Sink.trace) (List.length lines);
  List.iter
    (fun line ->
      match parse_json line with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "jsonl line is not an object")
    lines

let metrics_json_parses () =
  let obs = Sink.create ~metrics:true ~trace:false () in
  ignore (P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())));
  match parse_json (Json.to_string (M.to_json obs.Sink.metrics)) with
  | Json.Obj kvs ->
    Alcotest.(check bool) "per-link family present" true
      (List.exists (fun (k, _) -> Astring.String.is_prefix ~affix:"noc.link_flits{" k) kvs);
    Alcotest.(check bool) "sim aggregate present" true (List.mem_assoc "sim.tasks" kvs)
  | _ -> Alcotest.fail "metrics json is not an object"

(* {1 Percentiles} *)

let percentile_estimates () =
  (* 10 observations <= 10, 10 more <= 20: p50 lands at the first bucket's
     upper bound, p75 halfway through the second. *)
  let counts = [| 10; 10 |] and bounds = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "p50" 10.0 (M.percentile ~counts ~bounds 0.5);
  Alcotest.(check (float 1e-9)) "p75" 15.0 (M.percentile ~counts ~bounds 0.75);
  Alcotest.(check (float 1e-9)) "p100" 20.0 (M.percentile ~counts ~bounds 1.0);
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0 (M.percentile ~counts:[| 0; 0 |] ~bounds 0.5);
  (* Overflow-bucket mass clamps to the largest bound. *)
  Alcotest.(check (float 1e-9)) "overflow clamps" 20.0
    (M.percentile ~counts:[| 0; 0; 5 |] ~bounds 0.99)

(* {1 Movement ledger} *)

let link_flits_total reg =
  List.fold_left
    (fun acc (name, s) ->
      match s with
      | M.Counter_v v when Astring.String.is_prefix ~affix:"noc.link_flits{" name -> acc + v
      | _ -> acc)
    0 (M.to_alist reg)

let profiled_sink () = Sink.create ~metrics:true ~trace:false ~ledger:true ()

(* The central invariant: the ledger charges [flits x links] per message
   while the NoC adds [flits] to each traversed link's counter, so their
   totals must agree exactly — for every workload, under both schemes. *)
let ledger_reconciles_suite () =
  List.iter
    (fun name ->
      let k = Ndp_workloads.Suite.find name in
      List.iter
        (fun (scheme_name, scheme) ->
          let obs = profiled_sink () in
          ignore (P.Job.run ~obs (P.Job.make scheme k));
          Alcotest.(check int)
            (Printf.sprintf "%s/%s ledger == link flits" name scheme_name)
            (link_flits_total obs.Sink.metrics)
            (L.total_flit_hops obs.Sink.ledger))
        [ ("default", P.Default); ("partitioned", P.Partitioned P.partitioned_defaults) ])
    Ndp_workloads.Suite.names

let ledger_attributes_and_predicts () =
  let obs = profiled_sink () in
  ignore (P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())));
  let ledger = obs.Sink.ledger in
  let rows = L.rows ledger in
  Alcotest.(check bool) "rows present" true (rows <> []);
  (* Resolvers are registered, so real traffic lands on real provenance:
     named nests and arrays, not the "(other)" fallback. *)
  let attributed = List.filter (fun (r : L.row) -> r.L.nest <> "(other)") rows in
  Alcotest.(check bool) "most traffic attributed to statements" true
    (List.length attributed > List.length rows / 2);
  Alcotest.(check bool) "some array-resolved traffic" true
    (List.exists (fun (r : L.row) -> r.L.array_name <> "(other)" && r.L.array_name <> "(result)") rows);
  (* The compiler recorded its Kruskal/window estimates. *)
  Alcotest.(check bool) "predicted cost recorded" true (L.total_predicted ledger > 0);
  let stmts = L.statements ledger in
  Alcotest.(check bool) "statement aggregation present" true (stmts <> []);
  let sum_stmt = List.fold_left (fun acc (s : L.stmt_total) -> acc + s.L.s_flit_hops) 0 stmts in
  Alcotest.(check int) "statement totals partition row totals" (L.total_flit_hops ledger) sum_stmt

(* [jobs] copies of [f ()] running at once on a [jobs]-domain pool. *)
let concurrently jobs f =
  Pool.with_pool ~jobs (fun pool -> Pool.parallel_map pool f (List.init jobs ignore))

let ledger_output_deterministic_across_jobs () =
  let render () =
    let obs = profiled_sink () in
    ignore (P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())));
    Json.to_string (L.to_json obs.Sink.ledger)
  in
  let serial = render () in
  List.iter
    (fun jobs ->
      List.iter
        (Alcotest.(check string) (Printf.sprintf "jobs=%d byte-identical" jobs) serial)
        (concurrently jobs render))
    [ 4; 7 ]

(* {1 Timeline} *)

let timeline_samples_run () =
  let interval = 500 in
  let obs = Sink.create ~metrics:true ~trace:false ~timeline_interval:interval () in
  let r = P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  let series = TL.series obs.Sink.timeline in
  Alcotest.(check bool) "series registered" true (series <> []);
  let finish = Stats.finish_time r.P.stats in
  List.iter
    (fun (s : TL.series) ->
      Alcotest.(check bool) (s.TL.name ^ " sampled") true (s.TL.samples <> []);
      let rec monotone = function
        | (t1, v1) :: ((t2, v2) :: _ as rest) ->
          t1 <= t2 && v1 <= v2 (* counters never decrease *) && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) (s.TL.name ^ " monotone") true (monotone s.TL.samples);
      List.iter
        (fun (ts, _) ->
          if ts <> finish then
            Alcotest.(check int) (s.TL.name ^ " on-boundary sample") 0 (ts mod interval))
        s.TL.samples;
      (* The flush pinned the series' end to the run's last cycle. *)
      let last_ts = List.fold_left (fun _ (ts, _) -> ts) 0 s.TL.samples in
      Alcotest.(check int) (s.TL.name ^ " ends at finish") finish last_ts)
    series;
  (* The final flit-hop sample agrees with the aggregate counter. *)
  let hops_series = List.find (fun (s : TL.series) -> s.TL.name = "noc.flit_hops") series in
  let _, last_v = List.nth hops_series.TL.samples (List.length hops_series.TL.samples - 1) in
  Alcotest.(check int) "final sample == stats hops" (Stats.hops r.P.stats) last_v

let timeline_bounded () =
  let t = TL.create ~capacity:3 ~interval:10 () in
  TL.register t "c" (fun () -> 1);
  for i = 1 to 10 do
    TL.tick t ~now:(i * 10)
  done;
  match TL.series t with
  | [ s ] ->
    Alcotest.(check int) "capacity respected" 3 (List.length s.TL.samples);
    Alcotest.(check int) "overflow counted as dropped" 7 s.TL.dropped
  | _ -> Alcotest.fail "expected one series"

(* {1 Observation must not perturb} *)

let observed_run_identical () =
  let bare = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  let obs = Sink.create ~metrics:true ~trace:true () in
  let seen = P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  Alcotest.(check bool) "stats equal" true (Stats.equal bare.P.stats seen.P.stats);
  Alcotest.(check int) "exec_time equal" bare.P.exec_time seen.P.exec_time;
  Alcotest.(check (list (pair string int))) "windows equal" bare.P.windows_chosen
    seen.P.windows_chosen;
  (* The profiling layers (ledger + timeline) must be just as inert. *)
  let full =
    Sink.create ~metrics:true ~trace:true ~ledger:true ~timeline_interval:1000 ()
  in
  let profiled =
    P.Job.run ~obs:full (P.Job.make (P.Partitioned P.partitioned_defaults) (water ()))
  in
  Alcotest.(check bool) "stats equal under profiling" true
    (Stats.equal bare.P.stats profiled.P.stats);
  Alcotest.(check int) "exec_time equal under profiling" bare.P.exec_time profiled.P.exec_time

let observed_run_identical_under_pool () =
  let bare = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  let observed () =
    let obs = Sink.create ~metrics:true ~trace:true () in
    P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ()))
  in
  List.iter
    (fun (seen : P.result) ->
      Alcotest.(check bool) "stats equal under jobs=4" true (Stats.equal bare.P.stats seen.P.stats);
      Alcotest.(check int) "exec_time equal under jobs=4" bare.P.exec_time seen.P.exec_time)
    (concurrently 4 observed)

(* {1 Stats surface} *)

let stats_alist_shape () =
  let s = Stats.create () in
  Stats.incr_l1_hits s;
  Stats.add_hops s 9;
  let alist = Stats.to_alist s in
  Alcotest.(check int) "18 counters" 18 (List.length alist);
  Alcotest.(check (pair string int)) "l1_hits first" ("l1_hits", 1) (List.hd alist);
  Alcotest.(check int) "hops via alist" 9 (List.assoc "hops" alist)

let stats_pp_no_nan () =
  (* Regression: a run with zero messages used to render avg latency as
     "nan"; it must render as "-". *)
  let s = Stats.create () in
  Stats.incr_tasks s;
  let text = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "no nan" false (Astring.String.is_infix ~affix:"nan" text);
  Alcotest.(check bool) "dash placeholder" true (Astring.String.is_infix ~affix:"-" text);
  Alcotest.(check (float 1e-9)) "avg_latency total" 0.0 (Stats.avg_latency s)

(* {1 Spans} *)

module Span = Ndp_obs.Span

(* A deterministic test clock: 1 ms per reading. *)
let tick_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.001;
    !t

let span_fields t =
  match Json.member "spans" (Span.to_json ~wall:false t) with
  | Some (Json.List items) ->
    List.map
      (fun item ->
        let int name = match Json.member name item with Some (Json.Int n) -> n | _ -> -999 in
        let str name = match Json.member name item with Some (Json.Str s) -> s | _ -> "?" in
        (str "name", int "id", int "parent", int "depth"))
      items
  | _ -> Alcotest.fail "span json has no spans list"

let span_nesting_and_attrs () =
  let t = Span.create ~clock:(tick_clock ()) () in
  Alcotest.(check bool) "enabled" true (Span.enabled t);
  let a = Span.enter t "a" in
  let b = Span.enter t "b" in
  Span.attr_int t b "n" 7;
  Span.attr_str t b "k" "v";
  Alcotest.(check int) "two open" 2 (Span.depth t);
  Span.exit t b;
  let c = Span.enter t "c" in
  Span.exit ~cycles:42 t c;
  Span.exit t a;
  Alcotest.(check int) "stack drained" 0 (Span.depth t);
  Alcotest.(check int) "three recorded" 3 (Span.count t);
  (* ids in enter order; parents/depths reflect the open stack *)
  Alcotest.(check (list (pair string (pair int (pair int int)))))
    "structure"
    [ ("a", (0, (-1, 0))); ("b", (1, (0, 1))); ("c", (2, (0, 1))) ]
    (List.map (fun (n, i, p, d) -> (n, (i, (p, d)))) (span_fields t));
  (* attrs and cycles survive into the JSON *)
  (match Json.member "spans" (Span.to_json ~wall:false t) with
  | Some (Json.List [ _; b_item; c_item ]) ->
    (match Json.member "attrs" b_item with
    | Some attrs ->
      Alcotest.(check bool) "int attr" true (Json.member "n" attrs = Some (Json.Int 7));
      Alcotest.(check bool) "str attr" true (Json.member "k" attrs = Some (Json.Str "v"))
    | None -> Alcotest.fail "span b lost its attrs");
    Alcotest.(check bool) "cycles attr" true (Json.member "cycles" c_item = Some (Json.Int 42))
  | _ -> Alcotest.fail "expected three spans");
  (* summary aggregates by name, name-sorted *)
  let names = List.map fst (Span.summary t) in
  Alcotest.(check (list string)) "summary sorted" [ "a"; "b"; "c" ] names

let span_disabled_inert () =
  let t = Span.none in
  Alcotest.(check bool) "disabled" false (Span.enabled t);
  let sp = Span.enter t "dead" in
  Span.attr_int t sp "n" 1;
  Span.attr_str t sp "s" "x";
  Span.exit t sp;
  Alcotest.(check int) "nothing recorded" 0 (Span.count t);
  Alcotest.(check int) "nothing open" 0 (Span.depth t);
  Alcotest.(check bool) "empty json" true
    (Json.member "count" (Span.to_json t) = Some (Json.Int 0))

let span_exception_safe () =
  let t = Span.create ~clock:(tick_clock ()) () in
  (try Span.with_span t "boom" (fun () -> failwith "inner") with Failure _ -> ());
  Alcotest.(check int) "span closed by exception path" 0 (Span.depth t);
  Alcotest.(check int) "span still recorded" 1 (Span.count t)

(* Byte-identical pipeline phase span logs at any --jobs: each job's
   collector stays on the domain running that job. *)
let span_deterministic_across_jobs () =
  List.iter
    (fun app ->
      let kernel = Ndp_workloads.Suite.find app in
      let pipeline () =
        let spans = Span.create ~clock:(fun () -> 0.0) () in
        let obs = { Sink.none with Sink.spans } in
        ignore (P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) kernel));
        Json.to_string (Span.to_json ~wall:false spans)
      in
      let p1 = pipeline () in
      List.iter
        (fun jobs ->
          List.iter
            (Alcotest.(check string)
               (Printf.sprintf "%s pipeline spans %d jobs == serial" app jobs)
               p1)
            (concurrently jobs pipeline))
        [ 4; 7 ])
    [ "water"; "fft" ]

let span_pipeline_phases () =
  let phases scheme kernel =
    let spans = Span.create ~clock:(fun () -> 0.0) () in
    let obs = { Sink.none with Sink.spans } in
    ignore (P.Job.run ~obs (P.Job.make scheme kernel));
    List.map fst (Span.summary spans)
  in
  Alcotest.(check (list string)) "partitioned phases"
    [ "deps"; "parse"; "schedule"; "simulate"; "window" ]
    (phases (P.Partitioned P.partitioned_defaults) (water ()));
  Alcotest.(check (list string)) "fused adds a fusion phase"
    [ "deps"; "fusion"; "parse"; "schedule"; "simulate"; "window" ]
    (phases
       (P.Partitioned { P.partitioned_defaults with P.fuse = true })
       (Ndp_workloads.Suite.find "resnet_block"));
  Alcotest.(check (list string)) "default scheme coarse phases"
    [ "parse"; "simulate" ]
    (phases P.Default (water ()))

let span_chrome_containment () =
  let t = Span.create ~clock:(tick_clock ()) () in
  Span.with_span t "outer" (fun () ->
      Span.with_span t "inner" (fun () -> ());
      Span.with_span t "inner" (fun () -> ()));
  let slices =
    List.map
      (fun e ->
        let num name = match Json.member name e with Some (Json.Float f) -> f | Some (Json.Int n) -> float_of_int n | _ -> nan in
        let name = match Json.member "name" e with Some (Json.Str s) -> s | _ -> "?" in
        (name, num "ts", num "dur"))
      (Span.chrome_events t)
  in
  let outer = List.find (fun (n, _, _) -> n = "outer") slices in
  let _, ots, odur = outer in
  List.iter
    (fun (n, ts, dur) ->
      if n = "inner" then begin
        Alcotest.(check bool) "inner starts after outer" true (ts >= ots);
        Alcotest.(check bool) "inner ends before outer" true (ts +. dur <= ots +. odur)
      end)
    slices;
  Alcotest.(check int) "three slices" 3 (List.length slices)

(* {1 Prometheus exposition} *)

let prometheus_exposition_valid () =
  let reg = M.create () in
  M.add (M.counter reg "a.count") 3;
  let v = M.vec reg "noc.link" ~size:3 ~label:(fun i -> Printf.sprintf "%d->%d" i (i + 1)) in
  M.vadd v 0 2;
  M.vadd v 2 5;
  M.set_gauge (M.gauge reg "g.val") 1.5;
  let h = M.histogram ~buckets:[| 1.0; 2.0; 4.0 |] reg "h.lat" in
  List.iter (M.observe h) [ 0.5; 1.5; 3.0; 9.0 ];
  let text = M.to_prometheus reg in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let series = List.filter (fun l -> not (Astring.String.is_prefix ~affix:"#" l)) lines in
  (* every sample line is "name{labels} value" with a numeric value *)
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "sample line %S has no value" l
      | Some i -> (
        let value = String.sub l (i + 1) (String.length l - i - 1) in
        match float_of_string_opt value with
        | Some _ -> ()
        | None ->
          if not (List.mem value [ "NaN"; "+Inf"; "-Inf" ]) then
            Alcotest.failf "line %S has non-numeric value %S" l value))
    series;
  (* mangled names only, no duplicate series *)
  let keys =
    List.map
      (fun l -> match String.rindex_opt l ' ' with Some i -> String.sub l 0 i | None -> l)
    series
  in
  Alcotest.(check int) "no duplicate series" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun k ->
      if Astring.String.is_infix ~affix:"." k then
        Alcotest.failf "series %S kept an unmangled dot in its name" k)
    keys;
  (* one TYPE line per family *)
  let types = List.filter (fun l -> Astring.String.is_prefix ~affix:"# TYPE " l) lines in
  Alcotest.(check int) "one TYPE per family" 4 (List.length types);
  Alcotest.(check int) "TYPE lines distinct" 4 (List.length (List.sort_uniq compare types));
  (* histogram: cumulative buckets ending at +Inf, plus _sum/_count *)
  let bucket_values =
    List.filter_map
      (fun l ->
        if Astring.String.is_prefix ~affix:"h_lat_bucket{" l then
          String.rindex_opt l ' '
          |> Option.map (fun i -> float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      series
  in
  Alcotest.(check int) "bucket series incl +Inf" 4 (List.length bucket_values);
  let rec monotone = function a :: (b :: _ as rest) -> a <= b && monotone rest | _ -> true in
  Alcotest.(check bool) "buckets cumulative" true (monotone bucket_values);
  Alcotest.(check bool) "+Inf bucket closes the family" true
    (List.exists (fun l -> Astring.String.is_prefix ~affix:"h_lat_bucket{le=\"+Inf\"} 4" l) series);
  Alcotest.(check bool) "count series" true (List.mem "h_lat_count 4" series);
  Alcotest.(check bool) "sum series" true
    (List.exists (fun l -> Astring.String.is_prefix ~affix:"h_lat_sum " l) series)

let prometheus_deterministic () =
  let build () =
    let reg = M.create () in
    M.add (M.counter reg "z.last") 1;
    M.add (M.counter reg "a.first") 2;
    M.observe (M.histogram reg "m.h") 3.0;
    reg
  in
  Alcotest.(check string) "same registry, same exposition" (M.to_prometheus (build ()))
    (M.to_prometheus (build ()))

let tests =
  [
    ( "obs",
      [
        Alcotest.test_case "registry instruments" `Quick registry_instruments;
        Alcotest.test_case "same name same handle" `Quick registry_same_name_same_handle;
        Alcotest.test_case "disabled handles inert" `Quick disabled_inert;
        Alcotest.test_case "ring overflow" `Quick ring_overflow;
        Alcotest.test_case "chrome trace well-formed" `Quick trace_chrome_well_formed;
        Alcotest.test_case "jsonl lines parse" `Quick trace_jsonl_lines_parse;
        Alcotest.test_case "metrics json parses" `Quick metrics_json_parses;
        Alcotest.test_case "percentile estimates" `Quick percentile_estimates;
        Alcotest.test_case "ledger reconciles across suite" `Quick ledger_reconciles_suite;
        Alcotest.test_case "ledger attributes and predicts" `Quick ledger_attributes_and_predicts;
        Alcotest.test_case "ledger deterministic across jobs" `Quick
          ledger_output_deterministic_across_jobs;
        Alcotest.test_case "timeline samples a run" `Quick timeline_samples_run;
        Alcotest.test_case "timeline bounded" `Quick timeline_bounded;
        Alcotest.test_case "observed run identical" `Quick observed_run_identical;
        Alcotest.test_case "observed run identical under pool" `Quick observed_run_identical_under_pool;
        Alcotest.test_case "stats alist shape" `Quick stats_alist_shape;
        Alcotest.test_case "stats pp no nan" `Quick stats_pp_no_nan;
        Alcotest.test_case "span nesting and attrs" `Quick span_nesting_and_attrs;
        Alcotest.test_case "span disabled inert" `Quick span_disabled_inert;
        Alcotest.test_case "span exception safe" `Quick span_exception_safe;
        Alcotest.test_case "span deterministic across jobs" `Slow span_deterministic_across_jobs;
        Alcotest.test_case "span pipeline phases" `Quick span_pipeline_phases;
        Alcotest.test_case "span chrome containment" `Quick span_chrome_containment;
        Alcotest.test_case "prometheus exposition valid" `Quick prometheus_exposition_valid;
        Alcotest.test_case "prometheus deterministic" `Quick prometheus_deterministic;
      ] );
  ]
