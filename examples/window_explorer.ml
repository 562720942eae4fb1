(* The window-size tradeoff of Section 4.4 (Figures 20-21): sweep fixed
   statement-window sizes 1..8 on one application and compare against the
   adaptive per-nest choice. Small windows miss L1 reuse; large ones lose
   it again to pollution and cross-iteration grouping.

     dune exec examples/window_explorer.exe [app] *)

let () =
  let app = if Array.length Sys.argv > 1 then Sys.argv.(1) else "water" in
  let kernel =
    try Ndp_workloads.Suite.find app
    with Not_found ->
      Printf.eprintf "unknown app %s; one of: %s\n" app
        (String.concat ", " Ndp_workloads.Suite.names);
      exit 1
  in
  let run scheme = Ndp_core.Pipeline.(Job.run (Job.make scheme kernel)) in
  let default = run Ndp_core.Pipeline.Default in
  let base = default.Ndp_core.Pipeline.exec_time in
  Printf.printf "app: %s (default exec %d cycles)\n\n" app base;
  Printf.printf "%-10s %10s %8s %8s %8s\n" "window" "exec" "gain" "L1" "syncs";
  let report label (r : Ndp_core.Pipeline.result) =
    Printf.printf "%-10s %10d %7.1f%% %7.1f%% %8d\n" label r.Ndp_core.Pipeline.exec_time
      (100.0 *. float_of_int (base - r.Ndp_core.Pipeline.exec_time) /. float_of_int base)
      (100.0 *. Ndp_sim.Stats.l1_hit_rate r.Ndp_core.Pipeline.stats)
      r.Ndp_core.Pipeline.sync_arcs
  in
  for w = 1 to 8 do
    let r = run Ndp_core.Pipeline.(Partitioned { partitioned_defaults with window = Fixed w }) in
    report (Printf.sprintf "fixed %d" w) r
  done;
  let adaptive = run Ndp_core.Pipeline.(Partitioned partitioned_defaults) in
  report "adaptive" adaptive;
  Printf.printf "\nadaptive chose: %s\n"
    (String.concat ", "
       (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) adaptive.Ndp_core.Pipeline.windows_chosen))
