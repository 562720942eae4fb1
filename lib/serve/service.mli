(** The one request path behind every consumer of the pipeline:
    [ndp_run]'s subcommands turn their flags into a {!Protocol.job_spec},
    the serve daemon decodes one from the wire, and both resolve it to a
    {!Ndp_core.Pipeline.Job} through {!job_of_spec} and render the result
    through the same document builders below. A daemon response body is
    therefore byte-identical to the corresponding subcommand's
    [--format json] output for the same spec. *)

(** {1 Spec resolution}

    The one table that turns a request into a job. [ndp_run] builds a
    {!Protocol.job_spec} from its flags and the daemon decodes one from
    the wire; both resolve it here, so a flag and its wire spelling can
    never mean different jobs. Every refusal is a {!field_error} naming
    the spec field at fault; the CLI reports it as a usage error on the
    matching flag, the daemon as an error body. *)

type field_error = { field : string; reason : string }
(** A request value that is refused, naming the offending field. *)

val field_error_json : field_error -> Ndp_obs.Render.Json.t
(** The error body: [{"error": "field F: REASON", "field": F}]. *)

val scheme_of_spec : Protocol.job_spec -> (Ndp_core.Pipeline.scheme, field_error) result
(** ["default"], ["partitioned"] or ["partitioned+fuse"] (alias
    ["fused"]). The partitioned schemes read the spec's window:
    [""]/["adaptive"], ["analytic"] or a decimal fixed size of at least
    1; anything else is refused with field ["window"]. *)

val config_of_spec : Protocol.job_spec -> (Ndp_sim.Config.t, field_error) result
(** The default config with the spec's cluster and memory modes applied. *)

val job_of_spec : Protocol.job_spec -> (Ndp_core.Pipeline.Job.t, field_error) result
(** Resolves the kernel by suite name (field ["app"]), then
    cluster/memory, scheme/window, checks the tweaks, and parses the
    fault spec (field ["faults"]) seeded by [fault_seed] or the config's
    seed. A spec with no fault text and no seed yields [faults = None].

    Each tweak is refused outside its valid range, with the tweak's name
    as the field: [l1_boost] and [distance_factor] must lie in [0, 1],
    [cost_scale] must be finite and at least 1, [extra_syncs] at least
    0, and every [mc_overrides] node must be on the config's mesh. *)

val variant_patch :
  Ndp_sim.Config.t ->
  Protocol.variant ->
  (Ndp_sim.Config.t -> Ndp_sim.Config.t, field_error) result
(** Resolve a sweep variant over the job's [config]: its tweaks are
    checked as {!job_of_spec} checks a spec's, and its integer overrides
    become a config patch. Only
    simulation-side knobs (hop/service/hit/miss/op/sync/load-issue cycles,
    outstanding loads) may be overridden — address-shape parameters must
    match the capture config for replay to be meaningful. Cycle counts
    must be non-negative, and [hop_cycles] and [outstanding_loads]
    positive; an unknown field or an out-of-range value is an error
    naming the field. *)

(** {1 Shared renderers} *)

val result_human : Ndp_core.Pipeline.result -> string

val result_json : Ndp_core.Pipeline.result -> Ndp_obs.Render.Json.t

val metrics_json : Ndp_obs.Metrics.t -> Ndp_obs.Render.Json.t

val metrics_human : Ndp_obs.Metrics.t -> string

val plan_json : Ndp_fault.Plan.t -> spec:string -> repair:bool -> Ndp_obs.Render.Json.t

val link_flits_total : Ndp_obs.Metrics.t -> int
(** Sum of [noc.link_flits{..}] over every link — the ledger
    reconciliation target. *)

val divergence_ratio : static:int -> measured:int -> float
(** Symmetric >=1 divergence ratio; [infinity] when exactly one side is
    zero, [1.0] when both are. *)

val ratio_cell : float -> string

(** {1 Operations}

    Each operation runs one job and returns the result alongside the
    rendered JSON document and a lazy human rendering — exactly the
    artifacts the CLI prints and the daemon caches. *)

type run_outcome = {
  result : Ndp_core.Pipeline.result;
  sink : Ndp_obs.Sink.t;
  doc : Ndp_obs.Render.Json.t;
  human : unit -> string;
}

val run :
  ?metrics:bool ->
  ?spans:Ndp_obs.Span.t ->
  Ndp_core.Pipeline.Job.t ->
  run_outcome
(** [metrics] collects the registry during the run and nests the result
    under [{"result": .., "metrics": ..}], mirroring [ndp_run run
    --metrics]. [spans] (default disabled) collects the pipeline's phase
    spans — it never changes the document, so cached daemon responses
    stay byte-identical to CLI output. *)

type profile_outcome = {
  p_result : Ndp_core.Pipeline.result;
  p_sink : Ndp_obs.Sink.t;
  p_doc : Ndp_obs.Render.Json.t;
  p_human : unit -> string;
  p_reconciled : bool; (** ledger flit-hops = noc.link_flits *)
  p_measured : int;
  p_link_flits : int;
}

val profile :
  ?trace:bool ->
  ?spans:Ndp_obs.Span.t ->
  interval:int ->
  top:int ->
  Ndp_core.Pipeline.Job.t ->
  profile_outcome
(** Movement-attribution ledger + counter timeline. [trace] additionally
    fills the sink's tracer (for the CLI's Perfetto output); [spans]
    collects phase spans; neither changes the document. [top] bounds the
    human table only. *)

type analyze_outcome = {
  a_result : Ndp_core.Pipeline.result;
  a_doc : Ndp_obs.Render.Json.t;
  a_human : unit -> string;
  a_within : bool;
  a_ratio : float;
  a_static_total : int;
  a_measured_total : int;
}

val analyze :
  ?spans:Ndp_obs.Span.t ->
  threshold:float ->
  Ndp_core.Pipeline.Job.t ->
  analyze_outcome
(** Static cost table reconciled against one measured run. *)

type fusion_outcome = {
  f_fused : Ndp_core.Pipeline.result;
  f_unfused : Ndp_core.Pipeline.result;
  f_doc : Ndp_obs.Render.Json.t;
  f_human : unit -> string;
  f_fused_total : int;  (** measured ledger flit-hops, fused run *)
  f_unfused_total : int;
  f_reduction_pct : float;
}

val analyze_fusion : Ndp_core.Pipeline.Job.t -> fusion_outcome
(** Runs the job twice — fused and unfused partitioned schemes, same
    window policy and config, each under its own movement ledger — and
    joins the fused run's per-chain fusion decisions with the measured
    per-statement flit-hop deltas (unfused minus fused). The same
    reconciliation discipline as {!analyze}, aimed at the fusion pass's
    own savings predictions. *)

type inject_outcome = {
  i_result : Ndp_core.Pipeline.result;
  i_plan : Ndp_fault.Plan.t;
  i_reg : Ndp_obs.Metrics.t;
  i_doc : Ndp_obs.Render.Json.t;
  i_human : unit -> string;
}

val inject :
  ?spans:Ndp_obs.Span.t ->
  spec:string ->
  Ndp_core.Pipeline.Job.t ->
  inject_outcome
(** Runs the job under its fault plan — when the job carries none, an
    empty plan seeded with the config's seed, the seed an empty
    [--faults] spec resolves to — and echoes [spec] into the document's
    plan description. *)
