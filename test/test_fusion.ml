(* Differential fusion suite: every workload under the partitioned scheme
   with and without --fuse, serial and with a 4-domain pool.

   - fused runs are deterministic: identical stats and finish time at any
     job count, and across repeated runs;
   - on every workload where the pass makes at least one fusion decision,
     the fused run moves no more ledger flit-hops than the unfused one;
   - on the DNN-style chain workloads (resnet_block, mobilenet_block) the
     reduction is at least 15% — the headline the fusion pass exists for;
   - fused schedules pass the dependence race validator. *)

module Pipeline = Ndp_core.Pipeline
module Stats = Ndp_sim.Stats
module Ledger = Ndp_obs.Ledger
module Pool = Ndp_prelude.Pool

let unfused = Pipeline.Partitioned Pipeline.partitioned_defaults

let fused = Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.fuse = true }

(* The workloads whose statement chains the pass targets; everything else
   just has to not regress. *)
let dnn_targets = [ "resnet_block"; "mobilenet_block" ]

let run ?pool scheme name =
  let kernel = Ndp_workloads.Suite.find name in
  let obs = Ndp_obs.Sink.create ~metrics:false ~trace:false ~ledger:true () in
  let r = Pipeline.Job.run ?pool ~obs (Pipeline.Job.make scheme kernel) in
  (r, Ledger.total_flit_hops obs.Ndp_obs.Sink.ledger)

let check_same name what (a : Pipeline.result) (b : Pipeline.result) =
  if a.Pipeline.exec_time <> b.Pipeline.exec_time then
    Alcotest.failf "%s: %s changed the finish time (%d vs %d)" name what a.Pipeline.exec_time
      b.Pipeline.exec_time;
  if Stats.to_alist a.Pipeline.stats <> Stats.to_alist b.Pipeline.stats then
    Alcotest.failf "%s: %s changed the statistics" name what

let fused_deterministic () =
  List.iter
    (fun name ->
      let serial, _ = run fused name in
      let serial2, _ = run fused name in
      check_same name "a repeated serial fused run" serial serial2;
      Pool.with_pool ~jobs:4 (fun pool ->
          let pooled, _ = run ~pool fused name in
          check_same name "--jobs 4 on a fused run" serial pooled))
    Ndp_workloads.Suite.names

let unfused_unchanged () =
  (* The unfused partitioned path must be byte-identical whether or not the
     fusion code is linked in the binary: both spellings of "no fusion"
     agree, serial and pooled. *)
  List.iter
    (fun name ->
      let plain, _ = run unfused name in
      let cap0 =
        Pipeline.Partitioned
          { Pipeline.partitioned_defaults with Pipeline.fuse = true; fuse_capacity = Some 0 }
      in
      let identity, _ = run cap0 name in
      check_same name "capacity-0 fusion" plain identity;
      Pool.with_pool ~jobs:4 (fun pool ->
          let pooled, _ = run ~pool unfused name in
          check_same name "--jobs 4 on an unfused run" plain pooled))
    dnn_targets

let fused_moves_no_more () =
  (* Strict on the chain workloads the pass targets. Elsewhere a fused
     chain member runs unsplit, which can cost a handful of input flits
     against the write-backs it saves — allow 1% on those. *)
  List.iter
    (fun name ->
      let rf, fused_flits = run fused name in
      let _, unfused_flits = run unfused name in
      let bound =
        if List.mem name dnn_targets then unfused_flits
        else unfused_flits + (unfused_flits / 100)
      in
      if rf.Pipeline.fusion_decisions <> [] && fused_flits > bound then
        Alcotest.failf "%s: fusion made %d decisions yet moved more flit-hops (%d vs %d)" name
          (List.length rf.Pipeline.fusion_decisions)
          fused_flits unfused_flits)
    Ndp_workloads.Suite.names

let dnn_reduction () =
  let winners =
    List.filter
      (fun name ->
        let rf, fused_flits = run fused name in
        let _, unfused_flits = run unfused name in
        if rf.Pipeline.fusion_decisions = [] then
          Alcotest.failf "%s: no fusion decisions on a DNN chain workload" name;
        unfused_flits > 0
        && float_of_int (unfused_flits - fused_flits) /. float_of_int unfused_flits >= 0.15)
      dnn_targets
  in
  if List.length winners < 2 then
    Alcotest.failf "fusion reduced NoC flit-hops by >=15%% on only %d of [%s]"
      (List.length winners)
      (String.concat "; " dnn_targets)

let fused_race_free () =
  List.iter
    (fun name ->
      let kernel = Ndp_workloads.Suite.find name in
      let diags = Ndp_analysis.Validate.check_kernel fused kernel in
      match List.filter Ndp_analysis.Diagnostic.is_error diags with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s: fused schedule has races:\n  %s" name
          (String.concat "\n  " (List.map Ndp_analysis.Diagnostic.to_string errs)))
    ("fft" :: "water" :: dnn_targets)

let decisions_reconcile () =
  (* Each decision's predicted saving must be a real saving in the measured
     ledger: the summed per-chain measured deltas account for at least the
     whole fused-vs-unfused total (chains can overlap statements, so the
     sum may exceed the total, never undercut it by more than rounding). *)
  List.iter
    (fun name ->
      let kernel = Ndp_workloads.Suite.find name in
      let o = Ndp_serve.Service.analyze_fusion (Pipeline.Job.make fused kernel) in
      if o.Ndp_serve.Service.f_reduction_pct < 15.0 then
        Alcotest.failf "%s: analyze --fusion reports only %.1f%% reduction" name
          o.Ndp_serve.Service.f_reduction_pct;
      List.iter
        (fun (d : Ndp_core.Fusion.decision) ->
          if d.Ndp_core.Fusion.d_pred_saved_flit_hops <= 0 then
            Alcotest.failf "%s: a fusion decision predicts no saving" name;
          if d.Ndp_core.Fusion.d_elided_stores <= 0 then
            Alcotest.failf "%s: a fusion decision elides no stores" name)
        o.Ndp_serve.Service.f_fused.Pipeline.fusion_decisions)
    dnn_targets

(* The pipeline bands each nest's dependence analysis to its window,
   except under fusion: an intermediate read again beyond the window has
   two live readers, and only the full analysis sees the far one. Here
   t1[i+1] is read by the next statement of its own iteration and again
   by the last statement of the next iteration (five instances later), so
   with windows of one iteration its store must never be elided. *)
let far_reader_blocks_fusion () =
  let trips = 64 in
  let kernel =
    Ndp_workloads.Spec.kernel ~name:"far-reader" ~description:"intermediate read past the window"
      ~arrays:(List.map (fun a -> (a, trips + 8, 8)) [ "x"; "w"; "t1"; "t2"; "y" ])
      ~nests:
        [
          Ndp_workloads.Spec.nest "chain"
            [ ("i", 0, trips) ]
            [ "t1[i+1] = x[i] * w[i]"; "t2[i] = t1[i+1] * w[i]"; "y[i] = t2[i] + t1[i]" ];
        ]
      ()
  in
  let scheme =
    Pipeline.Partitioned
      { Pipeline.partitioned_defaults with Pipeline.fuse = true; window = Pipeline.Fixed 3 }
  in
  let r = Pipeline.Job.run (Pipeline.Job.make scheme kernel) in
  Alcotest.(check bool) "the single-reader link still fuses" true (r.Pipeline.fusion_decisions <> []);
  List.iter
    (fun (d : Ndp_core.Fusion.decision) ->
      if List.mem "t1" d.Ndp_core.Fusion.d_arrays then
        Alcotest.failf "t1 has a reader past the window, yet its store was elided")
    r.Pipeline.fusion_decisions

let tests =
  [
    ( "fusion",
      [
        Alcotest.test_case "fused runs deterministic (jobs 1/4, repeated)" `Slow
          fused_deterministic;
        Alcotest.test_case "capacity-0 and unfused agree (jobs 1/4)" `Slow unfused_unchanged;
        Alcotest.test_case "fused movement <= unfused wherever fusion fires" `Slow
          fused_moves_no_more;
        Alcotest.test_case "DNN chains: >=15% flit-hop reduction" `Slow dnn_reduction;
        Alcotest.test_case "fused schedules race-free" `Slow fused_race_free;
        Alcotest.test_case "fusion decisions reconcile with the ledger" `Slow
          decisions_reconcile;
        Alcotest.test_case "a reader past the window blocks fusion" `Quick
          far_reader_blocks_fusion;
      ] );
  ]
