(* ndp_serve: canonical content keys, the bounded LRU cache, the framed
   wire protocol, and the daemon's caching behaviour (repeat requests are
   byte-identical to cold ones; sweeps reuse captured schedules). *)

module Key = Ndp_serve.Key
module Cache = Ndp_serve.Cache
module Protocol = Ndp_serve.Protocol
module Server = Ndp_serve.Server
module Pipeline = Ndp_core.Pipeline
module Config = Ndp_sim.Config
module Plan = Ndp_fault.Plan
module RJ = Ndp_obs.Render.Json

let fft () = Ndp_workloads.Suite.find "fft"
let water () = Ndp_workloads.Suite.find "water"

(* -------------------------------------------------------------------- *)
(* Key: every collision-sensitive input perturbs the canonical key.      *)

(* One entry per Config.t field, in declaration order. If a field is ever
   added without extending [Key.config], the count check below trips. *)
let config_perturbations : (string * (Config.t -> Config.t)) list =
  [
    ("mesh_cols", fun d -> { d with Config.mesh_cols = d.Config.mesh_cols + 1 });
    ("mesh_rows", fun d -> { d with Config.mesh_rows = d.Config.mesh_rows + 1 });
    ("cluster", fun d -> { d with Config.cluster = Ndp_noc.Cluster.Snc4 });
    ("memory_mode", fun d -> { d with Config.memory_mode = Config.Cache_mode });
    ("line_bytes", fun d -> { d with Config.line_bytes = d.Config.line_bytes * 2 });
    ("l1_size", fun d -> { d with Config.l1_size = d.Config.l1_size * 2 });
    ("l1_assoc", fun d -> { d with Config.l1_assoc = d.Config.l1_assoc + 1 });
    ("l2_bank_size", fun d -> { d with Config.l2_bank_size = d.Config.l2_bank_size * 2 });
    ("l2_assoc", fun d -> { d with Config.l2_assoc = d.Config.l2_assoc + 1 });
    ("mcdram_capacity", fun d -> { d with Config.mcdram_capacity = d.Config.mcdram_capacity * 2 });
    ("hop_cycles", fun d -> { d with Config.hop_cycles = d.Config.hop_cycles + 1 });
    ( "link_service_cycles",
      fun d -> { d with Config.link_service_cycles = d.Config.link_service_cycles + 1 } );
    ("flit_bytes", fun d -> { d with Config.flit_bytes = d.Config.flit_bytes * 2 });
    ("l1_hit_cycles", fun d -> { d with Config.l1_hit_cycles = d.Config.l1_hit_cycles + 1 });
    ("l2_hit_cycles", fun d -> { d with Config.l2_hit_cycles = d.Config.l2_hit_cycles + 1 });
    ("mcdram_cycles", fun d -> { d with Config.mcdram_cycles = d.Config.mcdram_cycles + 1 });
    ("ddr_cycles", fun d -> { d with Config.ddr_cycles = d.Config.ddr_cycles + 1 });
    ("op_cycles", fun d -> { d with Config.op_cycles = d.Config.op_cycles + 1 });
    ("sync_cycles", fun d -> { d with Config.sync_cycles = d.Config.sync_cycles + 1 });
    ( "load_issue_cycles",
      fun d -> { d with Config.load_issue_cycles = d.Config.load_issue_cycles + 1 } );
    ( "outstanding_loads",
      fun d -> { d with Config.outstanding_loads = d.Config.outstanding_loads + 1 } );
    ("coherence", fun d -> { d with Config.coherence = not d.Config.coherence });
    ( "prefetch_next_line",
      fun d -> { d with Config.prefetch_next_line = not d.Config.prefetch_next_line } );
    ("mlp_overlap", fun d -> { d with Config.mlp_overlap = d.Config.mlp_overlap +. 0.125 });
    ( "balance_threshold",
      fun d -> { d with Config.balance_threshold = d.Config.balance_threshold +. 0.125 } );
    ("max_window", fun d -> { d with Config.max_window = d.Config.max_window + 1 });
    ("page_policy", fun d -> { d with Config.page_policy = Ndp_mem.Page_alloc.Scrambled });
    ( "predictor_capacity_blocks",
      fun d ->
        { d with Config.predictor_capacity_blocks = d.Config.predictor_capacity_blocks + 1 } );
    ("seed", fun d -> { d with Config.seed = d.Config.seed + 1 });
  ]

let key_covers_config () =
  let base = Key.config Config.default in
  List.iter
    (fun (name, f) ->
      if String.equal (Key.config (f Config.default)) base then
        Alcotest.failf "perturbing Config.%s does not change the config key" name)
    config_perturbations

let tweak_perturbations : (string * (Pipeline.tweaks -> Pipeline.tweaks)) list =
  [
    ("l1_boost", fun t -> { t with Pipeline.l1_boost = 0.25 });
    ("distance_factor", fun t -> { t with Pipeline.distance_factor = 0.5 });
    ("mc_overrides", fun t -> { t with Pipeline.mc_overrides = [ (3, 1) ] });
    ("cost_scale", fun t -> { t with Pipeline.cost_scale = 2.0 });
    ("extra_syncs", fun t -> { t with Pipeline.extra_syncs = 1 });
  ]

let key_covers_tweaks () =
  Alcotest.(check string) "no_tweaks keys empty" "" (Key.tweaks Pipeline.no_tweaks);
  List.iter
    (fun (name, f) ->
      if String.equal (Key.tweaks (f Pipeline.no_tweaks)) (Key.tweaks Pipeline.no_tweaks) then
        Alcotest.failf "perturbing tweaks.%s does not change the tweaks key" name)
    tweak_perturbations;
  (* mc_overrides must serialize pairwise: same flattened ints, different
     pairing, different key. *)
  let a = { Pipeline.no_tweaks with Pipeline.mc_overrides = [ (1, 2); (3, 0) ] } in
  let b = { Pipeline.no_tweaks with Pipeline.mc_overrides = [ (1, 23); (0, 0) ] } in
  if String.equal (Key.tweaks a) (Key.tweaks b) then
    Alcotest.fail "mc_overrides pairings collide"

let key_covers_scheme () =
  let schemes =
    [
      Pipeline.Default;
      Pipeline.Partitioned Pipeline.partitioned_defaults;
      Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed 2 };
      Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed 4 };
      Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Analytic };
      (* A job differing only in --fuse (or its capacity bound) must miss
         the schedule cache: fused schedules store different task graphs. *)
      Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.fuse = true };
      Pipeline.Partitioned
        { Pipeline.partitioned_defaults with Pipeline.fuse = true; fuse_capacity = Some 4096 };
    ]
  in
  let keys = List.map Key.scheme schemes in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "scheme keys pairwise distinct" (List.length keys) (List.length distinct)

let key_covers_fault () =
  let mesh = Config.mesh Config.default in
  let p1 = Plan.make ~mesh ~seed:1 [ Plan.Degrade_link (0, 1, 2.0) ] in
  let p2 = Plan.make ~mesh ~seed:2 [ Plan.Degrade_link (0, 1, 2.0) ] in
  let p3 = Plan.make ~mesh ~seed:1 [ Plan.Degrade_link (0, 1, 4.0) ] in
  Alcotest.(check string) "no plan keys empty" "" (Key.fault None);
  let k1 = Key.fault (Some p1) in
  if String.equal k1 "" then Alcotest.fail "a real plan must not key empty";
  if String.equal k1 (Key.fault (Some p2)) then Alcotest.fail "fault seed does not perturb key";
  if String.equal k1 (Key.fault (Some p3)) then Alcotest.fail "fault events do not perturb key"

let key_covers_kernel_content () =
  let f = fft () and w = water () in
  if String.equal (Key.kernel f) (Key.kernel w) then Alcotest.fail "distinct kernels collide";
  (* Same name, different body: content digests must still differ. *)
  let impostor = { w with Ndp_core.Kernel.name = f.Ndp_core.Kernel.name } in
  if String.equal (Key.kernel f) (Key.kernel impostor) then
    Alcotest.fail "same-named kernels with different bodies collide"

let key_covers_job_flags () =
  let job = Pipeline.Job.make Pipeline.Default (fft ()) in
  let base = Key.job job in
  List.iter
    (fun (name, j) ->
      if String.equal (Key.job j) base then
        Alcotest.failf "flipping %s does not change the job key" name)
    [
      ("repair", { job with Pipeline.Job.repair = true });
      ("validate", { job with Pipeline.Job.validate = true });
      ("capture", { job with Pipeline.Job.capture = true });
    ];
  Alcotest.(check int) "digest is 32 hex chars" 32 (String.length (Key.job_digest job))

(* -------------------------------------------------------------------- *)
(* Cache: LRU order, eviction accounting, hit/miss counts.               *)

let cache_lru () =
  let c = Cache.create ~name:"t" ~capacity:2 () in
  let v, hit = Cache.find_or_add c "a" (fun () -> 1) in
  Alcotest.(check bool) "first add misses" false hit;
  Alcotest.(check int) "computed value" 1 v;
  ignore (Cache.find_or_add c "b" (fun () -> 2));
  (* Refresh "a" so "b" is the least recently used entry. *)
  let v, hit = Cache.find_or_add c "a" (fun () -> 99) in
  Alcotest.(check bool) "repeat hits" true hit;
  Alcotest.(check int) "hit returns stored value" 1 v;
  ignore (Cache.find_or_add c "c" (fun () -> 3));
  Alcotest.(check bool) "LRU entry evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "refreshed entry survives" true (Cache.find c "a" = Some 1);
  let st = Cache.stats c in
  Alcotest.(check int) "entries" 2 st.Cache.entries;
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 3 st.Cache.misses;
  Alcotest.(check int) "evictions" 1 st.Cache.evictions

let cache_capacity_clamped () =
  let c = Cache.create ~name:"t" ~capacity:0 () in
  Alcotest.(check int) "capacity clamps to 1" 1 (Cache.capacity c);
  ignore (Cache.find_or_add c "a" (fun () -> 1));
  ignore (Cache.find_or_add c "b" (fun () -> 2));
  Alcotest.(check int) "never over capacity" 1 (Cache.stats c).Cache.entries

(* -------------------------------------------------------------------- *)
(* Protocol: JSON codec and framing round-trips.                         *)

let representative_requests () =
  let spec = Protocol.default_spec ~app:"fft" in
  let faulty =
    { spec with Protocol.faults = "kill=2,slow=1x2.5"; fault_seed = Some 7; repair = true }
  in
  [
    Protocol.Ping;
    Protocol.List_apps;
    Protocol.Run { spec; metrics = true };
    Protocol.Compile spec;
    Protocol.Profile { spec; interval = 500; top = 5 };
    Protocol.Analyze { spec; threshold = 2.5 };
    Protocol.Inject faulty;
    Protocol.Batch [ spec; faulty ];
    Protocol.Sweep
      {
        spec;
        variants =
          [
            { Protocol.v_name = "base"; v_overrides = []; v_tweaks = Pipeline.no_tweaks };
            {
              Protocol.v_name = "hop8";
              v_overrides = [ ("hop_cycles", 8) ];
              v_tweaks = { Pipeline.no_tweaks with Pipeline.cost_scale = 2.0 };
            };
          ];
      };
    Protocol.Cache_stats;
    Protocol.Metrics_dump;
    Protocol.Metrics_text;
    Protocol.Shutdown;
  ]

let codec_round_trip () =
  List.iteri
    (fun i req ->
      let id = i + 1 in
      match Protocol.request_of_json (Protocol.request_to_json ~id req) with
      | Ok (id', req') ->
        Alcotest.(check int) "id survives" id id';
        if req' <> req then Alcotest.failf "request %d does not round-trip" id
      | Error msg -> Alcotest.failf "request %d rejected: %s" id msg)
    (representative_requests ())

let framing_round_trip () =
  let path = Filename.temp_file "ndp_serve_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Protocol.write_frame oc "hello\nworld";
      Protocol.write_frame oc "";
      Protocol.write_request oc ~id:7 (Protocol.Analyze { spec = Protocol.default_spec ~app:"lu"; threshold = 1.5 });
      Protocol.write_response oc
        { Protocol.id = 7; ok = true; cached = true; key = "abc" }
        ~body:"{\n  \"x\": [1,\n2]\n}";
      close_out oc;
      let ic = open_in_bin path in
      (match Protocol.read_frame ic with
      | Protocol.Frame s -> Alcotest.(check string) "payload with newlines" "hello\nworld" s
      | _ -> Alcotest.fail "expected a frame");
      (match Protocol.read_frame ic with
      | Protocol.Frame s -> Alcotest.(check string) "empty payload" "" s
      | _ -> Alcotest.fail "expected an empty frame");
      (match Protocol.read_frame ic with
      | Protocol.Frame s -> (
        match Ndp_obs.Render.Json.parse s with
        | Ok doc -> (
          match Protocol.request_of_json doc with
          | Ok (7, Protocol.Analyze { threshold; _ }) ->
            Alcotest.(check (float 0.0)) "threshold" 1.5 threshold
          | Ok _ -> Alcotest.fail "wrong request decoded"
          | Error m -> Alcotest.fail m)
        | Error m -> Alcotest.fail m)
      | _ -> Alcotest.fail "expected a request frame");
      (match Protocol.read_response ic with
      | Ok (env, body) ->
        Alcotest.(check int) "envelope id" 7 env.Protocol.id;
        Alcotest.(check bool) "envelope cached" true env.Protocol.cached;
        Alcotest.(check string) "envelope key" "abc" env.Protocol.key;
        Alcotest.(check string) "body verbatim" "{\n  \"x\": [1,\n2]\n}" body
      | Error m -> Alcotest.fail m);
      (match Protocol.read_frame ic with
      | Protocol.Eof -> ()
      | _ -> Alcotest.fail "expected EOF");
      close_in ic)

let framing_rejects_garbage () =
  let path = Filename.temp_file "ndp_serve_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not-a-length\n{}\n";
      close_out oc;
      let ic = open_in_bin path in
      (match Protocol.read_frame ic with
      | Protocol.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt on a non-numeric length line");
      close_in ic)

(* -------------------------------------------------------------------- *)
(* Server: cached replies are byte-identical to cold ones.               *)

let specs_for_suite () =
  List.concat_map
    (fun app ->
      List.map
        (fun scheme -> { (Protocol.default_spec ~app) with Protocol.scheme })
        [ "default"; "partitioned" ])
    Ndp_workloads.Suite.names

let cached_replies_byte_identical () =
  let warm = Server.create () in
  let fresh = Server.create () in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown warm;
      Server.shutdown fresh)
    (fun () ->
      List.iter
        (fun spec ->
          let req = Protocol.Run { spec; metrics = false } in
          let r1 = Server.handle warm req in
          let r2 = Server.handle warm req in
          let rf = Server.handle fresh req in
          let ctx = spec.Protocol.app ^ "/" ^ spec.Protocol.scheme in
          Alcotest.(check bool) (ctx ^ " first reply ok") true r1.Server.ok;
          Alcotest.(check bool) (ctx ^ " first reply uncached") false r1.Server.cached;
          Alcotest.(check bool) (ctx ^ " repeat reply cached") true r2.Server.cached;
          Alcotest.(check string) (ctx ^ " repeat body identical") r1.Server.body r2.Server.body;
          Alcotest.(check string) (ctx ^ " keys agree") r1.Server.key r2.Server.key;
          Alcotest.(check bool) (ctx ^ " fresh reply uncached") false rf.Server.cached;
          Alcotest.(check string) (ctx ^ " fresh body identical") r1.Server.body rf.Server.body)
        (specs_for_suite ()))

let sweep_reuses_schedule () =
  let spec = Protocol.default_spec ~app:"fft" in
  let variants =
    [
      { Protocol.v_name = "baseline"; v_overrides = []; v_tweaks = Pipeline.no_tweaks };
      { Protocol.v_name = "hop8"; v_overrides = [ ("hop_cycles", 8) ]; v_tweaks = Pipeline.no_tweaks };
    ]
  in
  let sweep = Protocol.Sweep { spec; variants } in
  let warm = Server.create () in
  let fresh = Server.create () in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown warm;
      Server.shutdown fresh)
    (fun () ->
      let compile = Server.handle warm (Protocol.Compile spec) in
      Alcotest.(check bool) "compile ok" true compile.Server.ok;
      let s1 = Server.handle warm sweep in
      let sched = Cache.stats (Server.schedule_cache warm) in
      (* The compile populated the schedule cache; the sweep replayed it. *)
      Alcotest.(check int) "one captured compile" 1 sched.Cache.misses;
      Alcotest.(check int) "sweep reused the capture" 1 sched.Cache.hits;
      let s2 = Server.handle warm sweep in
      Alcotest.(check bool) "repeat sweep cached" true s2.Server.cached;
      Alcotest.(check string) "repeat sweep body identical" s1.Server.body s2.Server.body;
      (* A fresh server compiles from scratch; the body must not leak
         cache state (cold and warm sweeps are byte-identical). *)
      let sf = Server.handle fresh sweep in
      Alcotest.(check string) "cold sweep body identical" s1.Server.body sf.Server.body)

(* One bad value per spec field the resolver reads, and per tweak: each
   is refused in band, uncached, with a structured body naming that field
   or tweak. A window below 1 is refused rather than clamped into an
   alias of w=1; a cost scale below 1 or NaN is refused rather than run
   untweaked under a cache key of its own. *)
let errors_reported_in_band () =
  let server = Server.create () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let spec = Protocol.default_spec ~app:"fft" in
      let tweaked tweaks = { spec with Protocol.tweaks } in
      let no = Pipeline.no_tweaks in
      List.iter
        (fun (field, bad) ->
          let r = Server.handle server (Protocol.Run { spec = bad; metrics = false }) in
          let ctx = Printf.sprintf "%s (%s)" field r.Server.body in
          Alcotest.(check bool) (ctx ^ ": error reply not ok") false r.Server.ok;
          Alcotest.(check bool) (ctx ^ ": error reply uncached") false r.Server.cached;
          match RJ.parse r.Server.body with
          | Ok doc ->
            Alcotest.(check bool) (ctx ^ ": body carries an error") true
              (Option.is_some (RJ.member "error" doc));
            Alcotest.(check bool) (ctx ^ ": names the field") true
              (RJ.member "field" doc = Some (RJ.Str field))
          | Error m -> Alcotest.failf "%s: error body unparseable: %s" ctx m)
        [
          ("app", { spec with Protocol.app = "no-such-app" });
          ("scheme", { spec with Protocol.scheme = "greedy" });
          ("window", { spec with Protocol.window = "0" });
          ("window", { spec with Protocol.window = "-3" });
          ("window", { spec with Protocol.window = "x" });
          ("cluster", { spec with Protocol.cluster = "torus" });
          ("memory", { spec with Protocol.memory = "tape" });
          ("faults", { spec with Protocol.faults = "bogus=1" });
          ("distance_factor", tweaked { no with Pipeline.distance_factor = -1.0 });
          ("l1_boost", tweaked { no with Pipeline.l1_boost = 2.0 });
          ("mc_overrides", tweaked { no with Pipeline.mc_overrides = [ (0, 999) ] });
          ("cost_scale", tweaked { no with Pipeline.cost_scale = 0.0 });
          ("cost_scale", tweaked { no with Pipeline.cost_scale = Float.nan });
          ("extra_syncs", tweaked { no with Pipeline.extra_syncs = -3 });
        ])

(* A sweep override the simulator cannot run is refused before anything
   compiles, with a structured error naming the field — never raw
   exception text from deep in the simulator. *)
let sweep_overrides_validated () =
  let server = Server.create () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let sweep ?(v_tweaks = Pipeline.no_tweaks) overrides =
        Server.handle server
          (Protocol.Sweep
             {
               spec = Protocol.default_spec ~app:"fft";
               variants = [ { Protocol.v_name = "v"; v_overrides = overrides; v_tweaks } ];
             })
      in
      List.iter
        (fun (field, value) ->
          let r = sweep [ ("op_cycles", 4); (field, value) ] in
          let ctx = Printf.sprintf "%s=%d" field value in
          Alcotest.(check bool) (ctx ^ " refused") false r.Server.ok;
          (match RJ.parse r.Server.body with
          | Ok doc ->
            Alcotest.(check bool) (ctx ^ " names the field") true
              (RJ.member "field" doc = Some (RJ.Str field))
          | Error m -> Alcotest.failf "%s: error body unparseable: %s" ctx m);
          List.iter
            (fun affix ->
              if Astring.String.is_infix ~affix r.Server.body then
                Alcotest.failf "%s: raw exception text %S in %s" ctx affix r.Server.body)
            [ "Invalid_argument"; "Failure"; "Not_found"; "Division_by_zero" ])
        [
          ("hop_cycles", -5);
          ("hop_cycles", 0);
          ("outstanding_loads", 0);
          ("ddr_cycles", -1);
          ("mesh_cols", 8);
        ];
      let r = sweep ~v_tweaks:{ Pipeline.no_tweaks with Pipeline.l1_boost = 2.0 } [] in
      Alcotest.(check bool) "out-of-range variant tweak refused" false r.Server.ok;
      (match RJ.parse r.Server.body with
      | Ok doc ->
        Alcotest.(check bool) "names the tweak" true
          (RJ.member "field" doc = Some (RJ.Str "l1_boost"))
      | Error m -> Alcotest.failf "variant tweak: error body unparseable: %s" m);
      Alcotest.(check int) "refused sweeps compiled nothing" 0
        (Cache.stats (Server.schedule_cache server)).Cache.misses;
      let ok = sweep [ ("hop_cycles", 1); ("sync_cycles", 0); ("outstanding_loads", 1) ] in
      Alcotest.(check bool) "boundary values accepted" true ok.Server.ok)

(* A frame whose JSON parses but is not a request is answered under its
   own id; only unparseable JSON and corrupt framing fall back to id 0. *)
let error_envelopes_echo_id () =
  let path = Filename.temp_file "ndp_serve_ids" ".bin" in
  let rsp_path = Filename.temp_file "ndp_serve_ids_rsp" ".bin" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; rsp_path ])
    (fun () ->
      let oc = open_out_bin path in
      Protocol.write_frame oc {|{"id": 42, "op": "no-such-op"}|};
      Protocol.write_frame oc {|{"id": 43, "op": "run", "spec": {"app": 7}}|};
      Protocol.write_frame oc {|{"id": "x", "op": "ping"}|};
      Protocol.write_frame oc "{not json";
      Protocol.write_request oc ~id:44 Protocol.Ping;
      output_string oc "garbage\n";
      close_out oc;
      let server = Server.create () in
      let ic = open_in_bin path in
      let rsp_oc = open_out_bin rsp_path in
      Server.serve_channels server ic rsp_oc;
      close_in ic;
      close_out rsp_oc;
      Server.shutdown server;
      let ic = open_in_bin rsp_path in
      let rec envelopes acc =
        match Protocol.read_response ic with
        | Ok (env, _) -> envelopes ((env.Protocol.id, env.Protocol.ok) :: acc)
        | Error _ -> List.rev acc
      in
      let got = envelopes [] in
      close_in ic;
      Alcotest.(check (list (pair int bool)))
        "envelope ids"
        [ (42, false); (43, false); (0, false); (0, false); (44, true); (0, false) ]
        got)

(* -------------------------------------------------------------------- *)
(* Telemetry: request tracing, per-op latency, exposition, access log.   *)

module Metrics = Ndp_obs.Metrics
module Span = Ndp_obs.Span

(* A deterministic server clock: 0.5 ms per reading. *)
let test_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.0005;
    !t

let replies_are_traced () =
  let server = Server.create ~clock:(test_clock ()) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let r1 = Server.handle server Protocol.Ping in
      let r2 = Server.handle server (Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false }) in
      let r3 = Server.handle server Protocol.Ping in
      Alcotest.(check (list int)) "seq is a monotone request counter" [ 1; 2; 3 ]
        [ r1.Server.seq; r2.Server.seq; r3.Server.seq ];
      Alcotest.(check bool) "latency stamped" true (r2.Server.ms > 0.0);
      Alcotest.(check bool) "root span recorded" true (Span.count r1.Server.spans >= 1);
      Alcotest.(check bool) "uncached run records phase spans" true (Span.count r2.Server.spans > 1);
      let phases = List.map fst (Span.summary r2.Server.spans) in
      List.iter
        (fun p ->
          if not (List.mem p phases) then Alcotest.failf "run reply is missing a %S span" p)
        [ "request"; "parse"; "window"; "deps"; "schedule"; "simulate" ];
      (* per-phase span time reconciles with the request latency: the
         phases live under the root, so their sum is bounded by it *)
      let phase_ms =
        List.fold_left
          (fun acc (name, (_, ms, _)) -> if name = "request" then acc else acc +. ms)
          0.0 (Span.summary r2.Server.spans)
      in
      Alcotest.(check bool) "phase spans sum within request latency" true
        (phase_ms > 0.0 && phase_ms <= r2.Server.ms);
      (* a cached repeat skips the pipeline: root span only *)
      let r4 = Server.handle server (Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false }) in
      Alcotest.(check bool) "cached repeat" true r4.Server.cached;
      Alcotest.(check int) "cached reply has only the root span" 1 (Span.count r4.Server.spans);
      (* per-op histograms appear in the registry *)
      let reg = Server.registry server in
      (match Metrics.find reg "serve.request_ms{op=ping}" with
      | Some (Metrics.Histogram_v h) -> Alcotest.(check int) "two pings observed" 2 h.count
      | _ -> Alcotest.fail "no per-op histogram for ping");
      match Metrics.find reg "serve.request_ms" with
      | Some (Metrics.Histogram_v h) -> Alcotest.(check int) "aggregate counts all" 4 h.count
      | _ -> Alcotest.fail "no aggregate latency histogram")

let metrics_text_exposition () =
  let server = Server.create ~clock:(test_clock ()) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      ignore (Server.handle server Protocol.Ping);
      let r = Server.handle server Protocol.Metrics_text in
      Alcotest.(check bool) "ok" true r.Server.ok;
      Alcotest.(check bool) "uncached" false r.Server.cached;
      let has affix = Astring.String.is_infix ~affix r.Server.body in
      Alcotest.(check bool) "body is not JSON" false (Astring.String.is_prefix ~affix:"{" r.Server.body);
      Alcotest.(check bool) "counter family present" true (has "# TYPE serve_requests counter");
      Alcotest.(check bool) "histogram family present" true (has "# TYPE serve_request_ms histogram");
      Alcotest.(check bool) "per-op label series" true (has "serve_request_ms_bucket{op=\"ping\",le=");
      Alcotest.(check bool) "+Inf closes buckets" true (has "le=\"+Inf\"}");
      Alcotest.(check bool) "count series" true (has "serve_request_ms_count "))

let cache_stats_latency_section () =
  let server = Server.create ~clock:(test_clock ()) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      ignore (Server.handle server Protocol.Ping);
      ignore (Server.handle server (Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false }));
      let r = Server.handle server Protocol.Cache_stats in
      match RJ.parse r.Server.body with
      | Error m -> Alcotest.fail m
      | Ok doc -> (
        match RJ.member "latency" doc with
        | Some lat ->
          List.iter
            (fun key ->
              match RJ.member key lat with
              | Some entry ->
                (match (RJ.member "count" entry, RJ.member "p95_ms" entry) with
                | Some (RJ.Int n), Some _ -> Alcotest.(check bool) (key ^ " count positive") true (n > 0)
                | _ -> Alcotest.failf "latency.%s missing count/p95_ms" key)
              | None -> Alcotest.failf "latency section missing %S" key)
            [ "all"; "ping"; "run" ]
        | None -> Alcotest.fail "cache-stats has no latency section"))

let access_log_jsonl () =
  let req_path = Filename.temp_file "ndp_serve_req" ".bin" in
  let rsp_path = Filename.temp_file "ndp_serve_rsp" ".bin" in
  let log_path = Filename.temp_file "ndp_serve_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ req_path; rsp_path; log_path ])
    (fun () ->
      let oc = open_out_bin req_path in
      let session =
        [
          Protocol.Ping;
          Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false };
          Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false };
          Protocol.Shutdown;
        ]
      in
      List.iteri (fun i req -> Protocol.write_request oc ~id:(i + 1) req) session;
      close_out oc;
      let log_oc = open_out log_path in
      let server = Server.create ~clock:(test_clock ()) ~access_log:log_oc ~slow_ms:1e9 () in
      let ic = open_in_bin req_path in
      let rsp_oc = open_out_bin rsp_path in
      Server.serve_channels server ic rsp_oc;
      close_in ic;
      close_out rsp_oc;
      Server.shutdown server;
      close_out log_oc;
      let lines = In_channel.with_open_bin log_path In_channel.input_all in
      let lines = String.split_on_char '\n' lines |> List.filter (fun l -> l <> "") in
      Alcotest.(check int) "one JSONL line per request" (List.length session) (List.length lines);
      List.iteri
        (fun i line ->
          match RJ.parse line with
          | Error m -> Alcotest.failf "access-log line %d unparseable: %s" i m
          | Ok doc ->
            Alcotest.(check bool) (Printf.sprintf "line %d seq" i) true
              (RJ.member "seq" doc = Some (RJ.Int (i + 1)));
            Alcotest.(check bool) (Printf.sprintf "line %d id" i) true
              (RJ.member "id" doc = Some (RJ.Int (i + 1)));
            List.iter
              (fun field ->
                if RJ.member field doc = None then
                  Alcotest.failf "access-log line %d missing %S" i field)
              [ "op"; "key"; "ok"; "cached"; "ms"; "bytes_out"; "spans"; "phases" ])
        lines;
      (* the uncached run (line 2) carries phase totals; the cached repeat
         (line 3) does not *)
      let phases_of line =
        match RJ.parse line with
        | Ok doc -> (match RJ.member "phases" doc with Some (RJ.Obj kvs) -> List.map fst kvs | _ -> [])
        | Error _ -> []
      in
      Alcotest.(check bool) "cold run logs phase breakdown" true
        (List.mem "simulate" (phases_of (List.nth lines 1)));
      Alcotest.(check (list string)) "cached repeat logs no phases" [] (phases_of (List.nth lines 2));
      (* ops recorded via Protocol.op_name *)
      let op_of line =
        match RJ.parse line with
        | Ok doc -> (match RJ.member "op" doc with Some (RJ.Str s) -> s | _ -> "?")
        | Error _ -> "?"
      in
      Alcotest.(check (list string)) "ops in request order" [ "ping"; "run"; "run"; "shutdown" ]
        (List.map op_of lines))

let op_names_cover_requests () =
  List.iter
    (fun req ->
      let name = Protocol.op_name req in
      if name = "" then Alcotest.fail "empty op name";
      (* ops that round-trip through the wire decode back to the same op
         name (the access-log vocabulary is the wire vocabulary) *)
      match Protocol.request_of_json (Protocol.request_to_json ~id:1 req) with
      | Ok (_, req') -> Alcotest.(check string) "op name stable" name (Protocol.op_name req')
      | Error m -> Alcotest.fail m)
    (representative_requests ())

let tests =
  [
    ( "serve",
      [
        Alcotest.test_case "key covers every Config field" `Quick key_covers_config;
        Alcotest.test_case "key covers every tweak field" `Quick key_covers_tweaks;
        Alcotest.test_case "key covers scheme + window policy" `Quick key_covers_scheme;
        Alcotest.test_case "key covers fault spec + seed" `Quick key_covers_fault;
        Alcotest.test_case "key covers kernel content" `Quick key_covers_kernel_content;
        Alcotest.test_case "key covers job flags" `Quick key_covers_job_flags;
        Alcotest.test_case "cache LRU eviction accounting" `Quick cache_lru;
        Alcotest.test_case "cache capacity clamps to 1" `Quick cache_capacity_clamped;
        Alcotest.test_case "request codec round-trips" `Quick codec_round_trip;
        Alcotest.test_case "framing round-trips" `Quick framing_round_trip;
        Alcotest.test_case "framing rejects garbage" `Quick framing_rejects_garbage;
        Alcotest.test_case "cached replies byte-identical (suite x schemes)" `Slow
          cached_replies_byte_identical;
        Alcotest.test_case "sweep reuses the captured schedule" `Quick sweep_reuses_schedule;
        Alcotest.test_case "errors reported in band" `Quick errors_reported_in_band;
        Alcotest.test_case "replies are traced" `Quick replies_are_traced;
        Alcotest.test_case "metrics-text exposition" `Quick metrics_text_exposition;
        Alcotest.test_case "cache-stats latency section" `Quick cache_stats_latency_section;
        Alcotest.test_case "access log JSONL" `Quick access_log_jsonl;
        Alcotest.test_case "op names cover requests" `Quick op_names_cover_requests;
        Alcotest.test_case "sweep overrides validated" `Quick sweep_overrides_validated;
        Alcotest.test_case "error envelopes echo the frame id" `Quick error_envelopes_echo_id;
      ] );
  ]
