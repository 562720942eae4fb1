(* Seeded input generation. Every draw comes from a [Random.State]
   built from the run's seed (serve-mix's fixed popularity table from a
   constant one), so one seed always yields the same request sequence and
   another seed a different one. *)

let rng ~seed ~stream = Random.State.make [| seed; stream |]

(* A uniformly random permutation of [0 .. n-1] (Fisher-Yates). *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Zipf draws over ranks [0 .. n-1] with exponent [s] (rank k has weight
   1/(k+1)^s). The uniform inputs form a golden-ratio sequence from a
   seeded start: every prefix then holds each rank close to its expected
   number of times, so the hit share of a run barely moves from seed to
   seed, while the seed still decides the start and the order. *)
type zipf = { cdf : float array; mutable u : float }

let zipf rng ~n ~s =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  { cdf; u = Random.State.float rng 1.0 }

let golden = (sqrt 5.0 -. 1.0) /. 2.0

let draw z =
  let u = z.u in
  z.u <- Float.rem (z.u +. golden) 1.0;
  (* first rank whose cumulative weight reaches u *)
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo
