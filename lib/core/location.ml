type t = Context.location = {
  ref_ : Ndp_ir.Reference.t;
  node : int;
  in_l1 : bool;
  predicted_hit : bool option;
  va : int option;
  bytes : int;
}

let line_of (ctx : Context.t) va = va / ctx.config.Ndp_sim.Config.line_bytes

let locate (ctx : Context.t) ~store_node ref_ env =
  let bytes = Context.bytes_of ctx ref_ in
  match ctx.compiler_resolve ref_ env with
  | None -> { ref_; node = store_node; in_l1 = false; predicted_hit = None; va = None; bytes }
  | Some va -> (
    let cached =
      if ctx.options.Context.reuse_aware then Context.cached_node ctx ~line:(line_of ctx va)
      else None
    in
    match cached with
    | Some node -> { ref_; node; in_l1 = true; predicted_hit = None; va = Some va; bytes }
    | None ->
      if ctx.options.Context.ideal_location then begin
        let hit = Ndp_sim.Machine.probe_l2 ctx.machine ~va in
        let node =
          if hit then Ndp_sim.Machine.home_node ctx.machine ~va
          else Ndp_sim.Machine.compiler_mc_node ctx.machine ~va
        in
        { ref_; node; in_l1 = false; predicted_hit = Some hit; va = Some va; bytes }
      end
      else begin
        let pa = Ndp_sim.Machine.compiler_translate ctx.machine va in
        let hit = Ndp_mem.Miss_predictor.predict ctx.predictor pa in
        let node =
          if hit then Ndp_sim.Machine.compiler_home_node ctx.machine ~va
          else Ndp_sim.Machine.compiler_mc_node ctx.machine ~va
        in
        { ref_; node; in_l1 = false; predicted_hit = Some hit; va = Some va; bytes }
      end)
