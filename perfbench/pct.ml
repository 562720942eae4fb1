(* Sample statistics for the benchmark's reported figures. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank position (1-based) of quantile [q] among [n] samples. *)
let rank q n = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let beyond q n = n - rank q n

(* [samples_for q] is the smallest sample count with ten samples above the
   [q] quantile: a percentile is reported only when that many lie beyond
   it, so a tail figure never rests on a handful of points. *)
let samples_for q =
  let n = ref 1 in
  while beyond q !n < 10 do
    incr n
  done;
  !n

let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Error "no samples"
  else if beyond q n < 10 then
    Error
      (Printf.sprintf "p%g over %d samples has %d beyond it; at least 10 are needed (%d samples)"
         (q *. 100.) n (beyond q n) (samples_for q))
  else Ok a.(rank q n - 1)

(* Interpolated median; 0 on no samples. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs
