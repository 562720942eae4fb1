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
  (* The resolver's [Some va] is reused as the location's [va], and the
     predicted-hit options are the shared constants: this runs once per
     reference per statement instance. *)
  match ctx.compiler_resolve ref_ env with
  | None -> { ref_; node = store_node; in_l1 = false; predicted_hit = None; va = None; bytes }
  | Some va as some_va ->
    let cached =
      if ctx.options.Context.reuse_aware then Context.cached_node ctx ~line:(line_of ctx va) else -1
    in
    if cached >= 0 then
      { ref_; node = cached; in_l1 = true; predicted_hit = None; va = some_va; bytes }
    else begin
      let ideal = ctx.options.Context.ideal_location in
      let hit =
        if ideal then Ndp_sim.Machine.probe_l2 ctx.machine ~va
        else
          Ndp_mem.Miss_predictor.predict ctx.predictor
            (Ndp_sim.Machine.compiler_translate ctx.machine va)
      in
      let node =
        if not hit then Ndp_sim.Machine.compiler_mc_node ctx.machine ~va
        else if ideal then Ndp_sim.Machine.home_node ctx.machine ~va
        else Ndp_sim.Machine.compiler_home_node ctx.machine ~va
      in
      let predicted_hit = if hit then Some true else Some false in
      { ref_; node; in_l1 = false; predicted_hit; va = some_va; bytes }
    end
