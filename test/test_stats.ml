(* Tests for the RNG, distributions and statistical generators. *)

module Rng = Slimsim_stats.Rng
module Dist = Slimsim_stats.Dist
module Bound = Slimsim_stats.Bound
module Estimator = Slimsim_stats.Estimator
module Generator = Slimsim_stats.Generator

let test_rng_determinism () =
  let r1 = Rng.create 42L and r2 = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 r1) (Rng.bits64 r2)
  done;
  let r3 = Rng.create 43L in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.bits64 (Rng.create 42L) <> Rng.bits64 r3)

let test_rng_per_path_streams () =
  (* per-path streams must not depend on draw order *)
  let a = Rng.for_path ~seed:7L ~path:3 in
  let _ = Rng.for_path ~seed:7L ~path:4 in
  let b = Rng.for_path ~seed:7L ~path:3 in
  Alcotest.(check int64) "path stream is stable" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_float_range () =
  let r = Rng.create 5L in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let r = Rng.create 11L in
  let seen = Array.make 7 0 in
  for _ = 1 to 7_000 do
    let k = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 7);
    seen.(k) <- seen.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d populated" i) true (c > 700))
    seen

let test_rng_uniformity () =
  let r = Rng.create 13L in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float r
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_exponential_mean () =
  let r = Rng.create 17L in
  let rate = 2.5 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Dist.exponential r ~rate in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true
    (Float.abs (mean -. (1.0 /. rate)) < 0.01)

let test_categorical () =
  let r = Rng.create 19L in
  let weights = [| 1.0; 3.0; 6.0 |] in
  let counts = Array.make 3 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Dist.categorical r ~weights in
    counts.(k) <- counts.(k) + 1
  done;
  let frac k = float_of_int counts.(k) /. float_of_int n in
  Alcotest.(check bool) "weight 1/10" true (Float.abs (frac 0 -. 0.1) < 0.01);
  Alcotest.(check bool) "weight 3/10" true (Float.abs (frac 1 -. 0.3) < 0.015);
  Alcotest.(check bool) "weight 6/10" true (Float.abs (frac 2 -. 0.6) < 0.015);
  Alcotest.check_raises "empty weights rejected"
    (Invalid_argument "Dist.categorical: total weight must be positive")
    (fun () -> ignore (Dist.categorical r ~weights:[||]))

let test_exponential_race () =
  let r = Rng.create 23L in
  (* the race winner must follow rate proportions; the time Exp(sum) *)
  let rates = [| 1.0; 4.0 |] in
  let n = 50_000 in
  let wins = Array.make 2 0 in
  let sum_t = ref 0.0 in
  for _ = 1 to n do
    match Dist.exponential_race r ~rates with
    | Some (i, t) ->
      wins.(i) <- wins.(i) + 1;
      sum_t := !sum_t +. t
    | None -> Alcotest.fail "race with positive rates must have a winner"
  done;
  Alcotest.(check bool) "winner 1 ~ 80%" true
    (Float.abs ((float_of_int wins.(1) /. float_of_int n) -. 0.8) < 0.01);
  Alcotest.(check bool) "holding time ~ 1/5" true
    (Float.abs ((!sum_t /. float_of_int n) -. 0.2) < 0.005);
  Alcotest.(check bool) "no winner without rates" true
    (Dist.exponential_race r ~rates:[| 0.0; 0.0 |] = None)

let test_negative_params_rejected () =
  (* Regression: a negative weight among positive ones used to slip
     through (only the total was checked), making the cumulative scan
     non-monotone and silently biasing the draw. *)
  let r = Rng.create 29L in
  Alcotest.check_raises "categorical negative weight"
    (Invalid_argument "Dist.categorical: negative weight") (fun () ->
      ignore (Dist.categorical r ~weights:[| 1.0; -0.5; 2.0 |]));
  Alcotest.check_raises "race negative rate"
    (Invalid_argument "Dist.exponential_race: negative rate") (fun () ->
      ignore (Dist.exponential_race r ~rates:[| 0.5; -1.0 |]));
  let time = [| 0.0 |] in
  Alcotest.check_raises "race_into negative rate"
    (Invalid_argument "Dist.exponential_race_into: negative rate") (fun () ->
      ignore (Dist.exponential_race_into r ~rates:[| 0.5; -1.0; 3.0 |] ~n:2 ~time));
  (* entries beyond [n] are outside the race: neither summed nor checked *)
  Alcotest.(check bool) "rates beyond n ignored" true
    (Dist.exponential_race_into r ~rates:[| 0.5; 1.0; -3.0 |] ~n:2 ~time >= 0)

let prop cnt name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:cnt ~name gen f)

let gen_weight_case =
  QCheck2.Gen.(
    pair (int_range 1 0x3FFFFFFF)
      (list_size (int_range 2 5) (oneofl [ 0.5; 1.0; 2.0; 4.0; 8.0 ])))

let prop_categorical_frequencies (seed, ws) =
  (* empirical frequencies track the normalized weights (5+ sigma slack
     at 20_000 draws, so the property is stable under any qcheck seed) *)
  let weights = Array.of_list ws in
  let r = Rng.create (Int64.of_int seed) in
  let n = 20_000 in
  let counts = Array.make (Array.length weights) 0 in
  for _ = 1 to n do
    let k = Dist.categorical r ~weights in
    counts.(k) <- counts.(k) + 1
  done;
  let total = Array.fold_left ( +. ) 0.0 weights in
  let ok = ref true in
  Array.iteri
    (fun i w ->
      let frac = float_of_int counts.(i) /. float_of_int n in
      if Float.abs (frac -. (w /. total)) >= 0.025 then ok := false)
    weights;
  !ok

let test_uniform_choice () =
  Alcotest.check_raises "empty list rejected"
    (Invalid_argument "Dist.uniform_choice: empty list") (fun () ->
      ignore (Dist.uniform_choice (Rng.create 1L) []));
  (* a singleton consumes no randomness *)
  let r = Rng.create 31L in
  Alcotest.(check int) "singleton" 7 (Dist.uniform_choice r [ 7 ]);
  Alcotest.(check int64) "singleton consumes nothing"
    (Rng.bits64 (Rng.create 31L))
    (Rng.bits64 r);
  (* n >= 2: the indexed walk must match the old [List.nth _ (Rng.int _ n)]
     draw-for-draw — same element, same stream position afterwards — so
     verdict streams are bit-identical across the optimisation *)
  for n = 2 to 8 do
    let xs = List.init n (fun i -> i * 10) in
    let seed = Int64.of_int (100 + n) in
    let a = Rng.create seed and b = Rng.create seed in
    let chosen = Dist.uniform_choice a xs in
    let k = Rng.int b n in
    Alcotest.(check int)
      (Printf.sprintf "n=%d: element of the single draw" n)
      (List.nth xs k) chosen;
    Alcotest.(check int64)
      (Printf.sprintf "n=%d: same stream position" n)
      (Rng.bits64 b) (Rng.bits64 a)
  done

let test_chernoff_bound () =
  (* paper formula: N = 4 ln(2/delta) / eps^2 *)
  let n = Bound.chernoff_samples ~delta:0.05 ~eps:0.01 in
  Alcotest.(check int) "paper CH count" 147556 n;
  (* quadratic growth in 1/eps *)
  let n2 = Bound.chernoff_samples ~delta:0.05 ~eps:0.005 in
  Alcotest.(check bool) "quadratic in 1/eps" true
    (Float.abs ((float_of_int n2 /. float_of_int n) -. 4.0) < 0.01);
  (* monotone in delta *)
  Alcotest.(check bool) "monotone in delta" true
    (Bound.chernoff_samples ~delta:0.01 ~eps:0.01
    > Bound.chernoff_samples ~delta:0.1 ~eps:0.01);
  Alcotest.(check bool) "hoeffding tighter than paper form" true
    (Bound.hoeffding_samples ~delta:0.05 ~eps:0.01 < n);
  Alcotest.check_raises "delta validated"
    (Invalid_argument "Bound: delta must lie in (0,1)") (fun () ->
      ignore (Bound.chernoff_samples ~delta:1.5 ~eps:0.1))

let test_hoeffding_inverse () =
  let delta = 0.05 in
  let n = Bound.hoeffding_samples ~delta ~eps:0.01 in
  let eps' = Bound.hoeffding_eps ~delta ~n in
  Alcotest.(check bool) "eps from n consistent" true (eps' <= 0.01 +. 1e-6);
  let delta' = Bound.hoeffding_delta ~eps:0.01 ~n in
  Alcotest.(check bool) "delta from n consistent" true (delta' <= delta +. 1e-9)

let test_normal_quantile () =
  let cases =
    [ (0.5, 0.0); (0.975, 1.959964); (0.995, 2.575829); (0.025, -1.959964) ]
  in
  List.iter
    (fun (p, z) ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "quantile %.3f" p)
        z
        (Bound.normal_quantile p))
    cases

let test_estimator () =
  let e = Estimator.create () in
  List.iter (Estimator.add e) [ true; true; false; true ];
  Alcotest.(check int) "trials" 4 (Estimator.trials e);
  Alcotest.(check int) "successes" 3 (Estimator.successes e);
  Alcotest.(check (float 1e-9)) "mean" 0.75 (Estimator.mean e);
  let lo, hi = Estimator.confidence_interval e ~delta:0.05 in
  Alcotest.(check bool) "interval clipped to [0,1]" true
    (lo >= 0.0 && hi <= 1.0 && lo <= 0.75 && hi >= 0.75);
  let e2 = Estimator.create () in
  Estimator.add e2 false;
  let m = Estimator.merge e e2 in
  Alcotest.(check int) "merged trials" 5 (Estimator.trials m);
  Alcotest.(check int) "merged successes" 3 (Estimator.successes m)

let test_estimator_coverage () =
  (* Hoeffding interval at 1-delta must cover the true mean in well over
     1-delta of experiments. *)
  let rng = Rng.create 31L in
  let p = 0.3 and delta = 0.1 in
  let experiments = 400 and samples = 200 in
  let covered = ref 0 in
  for _ = 1 to experiments do
    let e = Estimator.create () in
    for _ = 1 to samples do
      Estimator.add e (Dist.bernoulli rng ~p)
    done;
    let lo, hi = Estimator.confidence_interval e ~delta in
    if lo <= p && p <= hi then incr covered
  done;
  Alcotest.(check bool) "coverage above 1 - delta" true
    (float_of_int !covered /. float_of_int experiments >= 1.0 -. delta)

let test_generators_fixed () =
  let gen = Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.1 in
  let planned = Option.get (Generator.planned_samples gen) in
  Alcotest.(check int) "planned count" 1476 planned;
  for _ = 1 to planned - 1 do
    Generator.feed gen true
  done;
  Alcotest.(check bool) "needs one more" true (Generator.needs_more gen);
  Generator.feed gen false;
  Alcotest.(check bool) "satisfied at N" false (Generator.needs_more gen);
  Alcotest.(check bool) "gauss plans fewer than chernoff" true
    (Option.get
       (Generator.planned_samples (Generator.create Generator.Gauss ~delta:0.05 ~eps:0.1))
    < planned)

let test_chow_robbins () =
  let gen = Generator.create Generator.Chow_robbins ~delta:0.05 ~eps:0.05 in
  Alcotest.(check bool) "sequential has no plan" true
    (Generator.planned_samples gen = None);
  let rng = Rng.create 37L in
  let n = ref 0 in
  while Generator.needs_more gen && !n < 100_000 do
    Generator.feed gen (Dist.bernoulli rng ~p:0.2);
    incr n
  done;
  Alcotest.(check bool) "stopped before the cap" true (!n < 100_000);
  (* CLT count for p(1-p)=0.16 is ~ z^2 * 0.16 / eps^2 ~ 246 *)
  Alcotest.(check bool) "plausible stopping time" true (!n > 100 && !n < 2000);
  let m = Estimator.mean (Generator.estimator gen) in
  Alcotest.(check bool) "estimate near truth" true (Float.abs (m -. 0.2) < 0.08)

let test_generator_names () =
  List.iter
    (fun k ->
      match Generator.kind_of_string (Generator.kind_to_string k) with
      | Ok k' -> Alcotest.(check bool) "name roundtrip" true (k = k')
      | Error e -> Alcotest.fail e)
    Generator.all_kinds;
  Alcotest.(check bool) "all kinds listed" true
    (List.mem Generator.Chow_robbins Generator.all_kinds);
  match Generator.kind_of_string "bogus" with
  | Ok _ -> Alcotest.fail "unknown generator must be rejected"
  | Error msg ->
    (* the error must enumerate every valid name, so a user can fix a
       typo without reading the source *)
    List.iter
      (fun k ->
        let name = Generator.kind_to_string k in
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %S" name)
          true
          (let re = Str.regexp_string name in
           try
             ignore (Str.search_forward re msg 0);
             true
           with Not_found -> false))
      Generator.all_kinds

let test_welford () =
  let w = Slimsim_stats.Welford.create () in
  List.iter (Slimsim_stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Slimsim_stats.Welford.count w);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Slimsim_stats.Welford.mean w);
  Alcotest.(check (float 1e-9)) "sample variance" (32.0 /. 7.0)
    (Slimsim_stats.Welford.variance w);
  let lo, hi = Slimsim_stats.Welford.confidence_interval w ~delta:0.05 in
  Alcotest.(check bool) "interval brackets the mean" true (lo < 5.0 && 5.0 < hi)

let test_welford_constant () =
  let w = Slimsim_stats.Welford.create () in
  for _ = 1 to 100 do
    Slimsim_stats.Welford.add w 3.25
  done;
  Alcotest.(check (float 1e-12)) "zero variance" 0.0 (Slimsim_stats.Welford.variance w);
  let lo, hi = Slimsim_stats.Welford.confidence_interval w ~delta:0.05 in
  Alcotest.(check (float 1e-12)) "degenerate interval" 0.0 (hi -. lo)

let test_estimator_serialization () =
  let e = Estimator.create () in
  for i = 1 to 57 do
    Estimator.add e (i mod 3 = 0)
  done;
  (match Estimator.of_string (Estimator.to_string e) with
  | Ok e' ->
    Alcotest.(check int) "trials" (Estimator.trials e) (Estimator.trials e');
    Alcotest.(check int) "successes" (Estimator.successes e)
      (Estimator.successes e');
    Alcotest.(check (float 0.0)) "mean is bit-identical" (Estimator.mean e)
      (Estimator.mean e')
  | Error msg -> Alcotest.failf "of_string failed: %s" msg);
  (match Estimator.of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  match Estimator.of_string "3 7" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "successes > trials must not parse"

let test_welford_serialization () =
  let w = Slimsim_stats.Welford.create () in
  (* values with no short decimal representation: the hex-float format
     must still round-trip them exactly *)
  for i = 1 to 100 do
    Slimsim_stats.Welford.add w (1.0 /. float_of_int i)
  done;
  (match Slimsim_stats.Welford.of_string (Slimsim_stats.Welford.to_string w) with
  | Ok w' ->
    let n, mean, m2 = Slimsim_stats.Welford.state w in
    let n', mean', m2' = Slimsim_stats.Welford.state w' in
    Alcotest.(check int) "count" n n';
    Alcotest.(check (float 0.0)) "mean is bit-identical" mean mean';
    Alcotest.(check (float 0.0)) "m2 is bit-identical" m2 m2'
  | Error msg -> Alcotest.failf "of_string failed: %s" msg);
  match Slimsim_stats.Welford.of_string "not a welford" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

let test_generator_restore () =
  (* restoring a generator's counters must reproduce the stopping
     decision and the estimate of a generator that was fed live *)
  List.iter
    (fun kind ->
      let live = Generator.create kind ~delta:0.05 ~eps:0.05 in
      let n = ref 0 in
      while Generator.needs_more live && !n < 200 do
        incr n;
        Generator.feed live (!n mod 4 = 0)
      done;
      let est = Generator.estimator live in
      let restored = Generator.create kind ~delta:0.05 ~eps:0.05 in
      Generator.restore restored ~trials:(Estimator.trials est)
        ~successes:(Estimator.successes est);
      Alcotest.(check bool)
        (Generator.kind_to_string kind ^ ": same stopping decision")
        (Generator.needs_more live)
        (Generator.needs_more restored);
      Alcotest.(check (float 0.0))
        (Generator.kind_to_string kind ^ ": same estimate")
        (Estimator.mean est)
        (Estimator.mean (Generator.estimator restored)))
    [ Generator.Chernoff; Generator.Chow_robbins ]

module Welford = Slimsim_stats.Welford

let test_welford_half_width () =
  let w = Welford.create () in
  Alcotest.(check bool) "empty accumulator: infinite half-width" true
    (Welford.half_width w ~delta:0.05 = infinity);
  List.iter (Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  let hw = Welford.half_width w ~delta:0.05 in
  let lo, hi = Welford.confidence_interval w ~delta:0.05 in
  Alcotest.(check (float 1e-12)) "interval is mean ± half_width" hw
    ((hi -. lo) /. 2.0);
  Alcotest.(check bool) "tighter at lower confidence" true
    (Welford.half_width w ~delta:0.5 < hw)

(* --- estimator merge / of_counts edge cases --- *)

let test_estimator_merge_edges () =
  let full = Estimator.of_counts ~trials:40 ~successes:13 in
  let empty = Estimator.create () in
  let m = Estimator.merge full empty in
  Alcotest.(check int) "zero-trial merge: trials" 40 (Estimator.trials m);
  Alcotest.(check int) "zero-trial merge: successes" 13 (Estimator.successes m);
  Alcotest.(check (float 0.0)) "zero-trial merge keeps the mean"
    (Estimator.mean full) (Estimator.mean m);
  let a = Estimator.of_counts ~trials:10 ~successes:3 in
  let b = Estimator.of_counts ~trials:30 ~successes:29 in
  let ab = Estimator.merge a b and ba = Estimator.merge b a in
  Alcotest.(check int) "commutative: trials" (Estimator.trials ab)
    (Estimator.trials ba);
  Alcotest.(check int) "commutative: successes" (Estimator.successes ab)
    (Estimator.successes ba);
  Alcotest.(check (float 0.0)) "commutative: mean" (Estimator.mean ab)
    (Estimator.mean ba);
  Alcotest.(check int) "merge adds trials" 40 (Estimator.trials ab);
  Alcotest.(check int) "merge adds successes" 32 (Estimator.successes ab);
  (* merging is not mutation: the inputs keep their own counts *)
  Alcotest.(check int) "inputs untouched" 10 (Estimator.trials a)

let test_estimator_of_counts_rejects () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must be rejected" name
  in
  expect_invalid "negative trials" (fun () ->
      Estimator.of_counts ~trials:(-1) ~successes:0);
  expect_invalid "negative successes" (fun () ->
      Estimator.of_counts ~trials:5 ~successes:(-2));
  expect_invalid "successes above trials" (fun () ->
      Estimator.of_counts ~trials:5 ~successes:6);
  (* the boundary cases are legal *)
  let z = Estimator.of_counts ~trials:0 ~successes:0 in
  Alcotest.(check (float 0.0)) "empty estimator mean" 0.0 (Estimator.mean z);
  let all = Estimator.of_counts ~trials:7 ~successes:7 in
  Alcotest.(check (float 0.0)) "all-successes mean" 1.0 (Estimator.mean all)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng per-path streams" `Quick test_rng_per_path_streams;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng uniformity" `Slow test_rng_uniformity;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "categorical" `Slow test_categorical;
    Alcotest.test_case "negative parameters rejected" `Quick
      test_negative_params_rejected;
    prop 20 "categorical frequencies track weights" gen_weight_case
      prop_categorical_frequencies;
    Alcotest.test_case "uniform choice" `Quick test_uniform_choice;
    Alcotest.test_case "exponential race" `Slow test_exponential_race;
    Alcotest.test_case "chernoff bound" `Quick test_chernoff_bound;
    Alcotest.test_case "hoeffding inverse" `Quick test_hoeffding_inverse;
    Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
    Alcotest.test_case "estimator" `Quick test_estimator;
    Alcotest.test_case "estimator coverage" `Slow test_estimator_coverage;
    Alcotest.test_case "fixed generators" `Quick test_generators_fixed;
    Alcotest.test_case "chow-robbins" `Quick test_chow_robbins;
    Alcotest.test_case "generator names" `Quick test_generator_names;
    Alcotest.test_case "welford" `Quick test_welford;
    Alcotest.test_case "welford constant" `Quick test_welford_constant;
    Alcotest.test_case "estimator serialization" `Quick
      test_estimator_serialization;
    Alcotest.test_case "welford serialization" `Quick
      test_welford_serialization;
    Alcotest.test_case "generator restore" `Quick test_generator_restore;
    Alcotest.test_case "welford half-width" `Quick test_welford_half_width;
    Alcotest.test_case "estimator merge edges" `Quick test_estimator_merge_edges;
    Alcotest.test_case "estimator of_counts validation" `Quick
      test_estimator_of_counts_rejects;
  ]
