(* Order statistics for the benchmark's reports.

   Interpolated statistics use the "exclusive" rank rule of Python's
   [statistics.quantiles] (its default): the p-quantile of n sorted
   values sits at 1-based rank (n + 1)·p, linearly interpolated, so the
   run-to-run spreads computed by external tooling with that function
   match the benchmark's own. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* A rank beyond the outermost pair of samples reads the extreme sample
   rather than extrapolating, so a percentile never leaves the data's
   range. *)
let percentile xs p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Quantile.percentile: p outside (0, 1)";
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.percentile: no samples"
  else if n = 1 then a.(0)
  else begin
    let h = Float.of_int (n + 1) *. p in
    let j = max 1 (min (n - 1) (Float.to_int h)) in
    let frac = Float.min 1.0 (Float.max 0.0 (h -. Float.of_int j)) in
    a.(j - 1) +. (frac *. (a.(j) -. a.(j - 1)))
  end

let median xs = percentile xs 0.5

(* Exactly [statistics.quantiles(xs, n=4)], including its integer rank
   arithmetic and its extrapolation for fewer than three samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Quantile.quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. Float.of_int (n - delta)) +. (a.(j) *. Float.of_int delta))
    /. Float.of_int n
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. q2
