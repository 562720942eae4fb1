module Pipeline = Ndp_core.Pipeline
module Config = Ndp_sim.Config
module Pool = Ndp_prelude.Pool

type t = {
  cache : (string, Pipeline.result) Hashtbl.t;
  lock : Mutex.t;
  pool : Pool.t;
  mutable kernels : Ndp_core.Kernel.t list option;
}

let create ?jobs () =
  { cache = Hashtbl.create 64; lock = Mutex.create (); pool = Pool.create ?jobs (); kernels = None }

let pool t = t.pool

let apps t =
  Mutex.lock t.lock;
  let ks =
    match t.kernels with
    | Some ks -> ks
    | None ->
      let ks = Ndp_workloads.Suite.all () in
      t.kernels <- Some ks;
      ks
  in
  Mutex.unlock t.lock;
  ks

(* Canonical content keys live in [Ndp_serve.Key] (this cache is where
   they were born; the serve daemon promoted them). [Key.kernel] digests
   the IR content, so same-named kernels with different bodies cannot
   alias here either. *)
module Key = Ndp_serve.Key

let run t ?(config = Config.default) ?(tweaks = Pipeline.no_tweaks) ?(key_suffix = "") scheme
    kernel =
  let key =
    String.concat "#"
      [ Key.kernel kernel; Key.scheme scheme; Key.config config; Key.tweaks tweaks; key_suffix ]
  in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.cache key with
  | Some r ->
    Mutex.unlock t.lock;
    r
  | None ->
    Mutex.unlock t.lock;
    (* Simulate outside the lock; a concurrent cell computing the same key
       produces a bit-identical result (runs are deterministic), and the
       first writer wins so every reader sees one value. *)
    let r = Pipeline.Job.run (Pipeline.Job.make ~config ~tweaks scheme kernel) in
    Mutex.lock t.lock;
    let r =
      match Hashtbl.find_opt t.cache key with
      | Some first -> first
      | None ->
        Hashtbl.replace t.cache key r;
        r
    in
    Mutex.unlock t.lock;
    r

let parallel_map t f xs = Pool.parallel_map t.pool f xs

let map_apps t f = parallel_map t f (apps t)

let default_of t kernel = run t Pipeline.Default kernel

let ours_of t kernel = run t (Pipeline.Partitioned Pipeline.partitioned_defaults) kernel

let improvement ~base ~opt =
  Ndp_prelude.Stats.improvement_pct (float_of_int base) (float_of_int opt)

let geomean_improvement rows =
  (* Geometric mean over percentages needs positive values; clamp small. *)
  Ndp_prelude.Stats.geomean (List.map (fun (v, _) -> max 0.1 v) rows)
