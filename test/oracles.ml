(* Reference implementations the shipped libraries no longer carry: the
   O(n^2) dependence analysis and the sampled window-size search that
   compiles every candidate chunk from scratch. They are deliberately
   naive — written from the definitions rather than shared with the code
   under test — so the equivalence tests check the optimized paths
   against an independent answer. *)

module Dep = Ndp_ir.Dependence
module Window = Ndp_core.Window
module Context = Ndp_core.Context

(* Every instance pair (i < j) in order; per pair the output dependence,
   then a flow dependence per input of j, then an anti dependence per
   input of i. Two accesses conflict when they share an array and either
   resolve to the same address (a must-dependence) or one side cannot be
   resolved (a may-dependence). *)
let analyze_naive (resolver : Dep.resolver) (instances : Dep.instance list) =
  let resolve (inst : Dep.instance) =
    let access r = (r.Ndp_ir.Reference.array, resolver r inst.Dep.env) in
    (access (Ndp_ir.Stmt.output inst.Dep.stmt), List.map access (Ndp_ir.Stmt.inputs inst.Dep.stmt))
  in
  let conflict (a, x) (b, y) =
    if a <> b then None
    else match (x, y) with Some x, Some y -> if x = y then Some false else None | _ -> Some true
  in
  let arr = Array.of_list (List.map resolve instances) in
  let n = Array.length arr in
  let deps = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let wi, ri = arr.(i) and wj, rj = arr.(j) in
      let add kind = function
        | Some may -> deps := { Dep.src = i; dst = j; kind; may } :: !deps
        | None -> ()
      in
      add Dep.Output (conflict wi wj);
      List.iter (fun r -> add Dep.Flow (conflict wi r)) rj;
      List.iter (fun r -> add Dep.Anti (conflict r wj)) ri
    done
  done;
  List.rev !deps

(* Total estimated movement plus synchronization cost (in links) when the
   stream is compiled under a fixed window size, every chunk analyzed and
   compiled from scratch on a forked context. *)
let movement_estimate (ctx : Context.t) metas ~window =
  let ctx = Context.fork_for_estimate ctx in
  let sync_links = Window.sync_links_of ctx in
  List.fold_left
    (fun acc chunk ->
      let compiled = Window.compile ctx chunk in
      List.fold_left
        (fun acc (r : Window.stmt_report) -> acc + r.Window.est_movement)
        (acc + (sync_links * compiled.Window.sync_count))
        compiled.Window.reports)
    0 (Window.chunk metas window)

(* The sizer's sample: the first 256 instances of the nest. *)
let sample_size = 256

(* The sampled window-size search: the size in [1..max] with the least
   [movement_estimate] over the sample, the smallest size winning ties. *)
let choose_size_reanalyze (ctx : Context.t) metas ~max:max_size =
  let sample = List.filteri (fun i _ -> i < sample_size) metas in
  let rec best w best_w best_m =
    if w > max_size then best_w
    else begin
      let m = movement_estimate ctx sample ~window:w in
      if m < best_m then best (w + 1) w m else best (w + 1) best_w best_m
    end
  in
  best 1 1 max_int
