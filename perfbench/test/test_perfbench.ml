(* Tests for the benchmark's own code: order statistics, the
   priced-queue reference solver and the golden-row reader. *)

open Perfbench

let close ?(tol = 1e-12) msg want got =
  if Float.abs (want -. got) > tol *. Float.max 1.0 (Float.abs want) then
    Alcotest.failf "%s: want %.17g, got %.17g" msg want got

let range a b = Array.init (b - a + 1) (fun i -> Float.of_int (a + i))

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, q2, q3 = Quantile.quartiles (range 1 10) in
  close "q1" 2.75 q1;
  close "q2" 5.5 q2;
  close "q3" 8.25 q3;
  let q1, q2, q3 = Quantile.quartiles [| 3.0; 1.0 |] in
  close "two q1" 0.5 q1;
  close "two q2" 2.0 q2;
  close "two q3" 3.5 q3;
  let q1, _, q3 = Quantile.quartiles [| 7.0; 1.0; 4.0; 2.0; 9.0 |] in
  close "five q1" 1.5 q1;
  close "five q3" 8.0 q3;
  close "spread" ((8.25 -. 2.75) /. 5.5) (Quantile.spread (range 1 10));
  Alcotest.check_raises "one sample"
    (Invalid_argument "Quantile.quartiles: need at least two samples") (fun () ->
      ignore (Quantile.quartiles [| 1.0 |]))

let test_percentile () =
  close "median even" 5.5 (Quantile.median (range 1 10));
  close "median odd" 4.0 (Quantile.median [| 9.0; 4.0; 1.0 |]);
  close "p98 of 1..100" 98.98 (Quantile.percentile (range 1 100) 0.98);
  close "single sample" 7.0 (Quantile.percentile [| 7.0 |] 0.98);
  close "clamped low" 1.0 (Quantile.percentile [| 3.0; 2.0; 1.0 |] 0.01);
  close "clamped high" 3.0 (Quantile.percentile [| 3.0; 2.0; 1.0 |] 0.99);
  let xs = [| 5.0; 1.0; 3.0 |] in
  ignore (Quantile.median xs);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 5.0; 1.0; 3.0 |] xs;
  Alcotest.check_raises "p outside (0, 1)"
    (Invalid_argument "Quantile.percentile: p outside (0, 1)") (fun () ->
      ignore (Quantile.percentile xs 1.0))

(* One server, one job to serve: the cost is the service time, Exp(mu),
   and the passage time is Exp(lambda) + Exp(mu). *)
let test_queue_closed_form () =
  let lambda = 0.8 and mu = 2.0 in
  let c = { Queue_ref.arrival = lambda; service = mu; capacity = 1; target = 1 } in
  let mom = Queue_ref.first_passage_reward c in
  close "mean" (1.0 /. mu) mom.Queue_ref.mean;
  close "second moment" (2.0 /. (mu *. mu)) mom.Queue_ref.second_moment;
  let h = 3.0 in
  let hypo =
    ((mu *. exp (-.lambda *. h)) -. (lambda *. exp (-.mu *. h))) /. (mu -. lambda)
  in
  close ~tol:1e-9 "survival" hypo (Queue_ref.survival c ~horizon:h);
  close "survival at 0" 1.0 (Queue_ref.survival c ~horizon:0.0)

let mm1k = { Queue_ref.arrival = 0.8; service = 1.0; capacity = 4; target = 5 }

let test_queue_truncation () =
  let b = Queue_ref.truncation_bound mm1k ~horizon:100.0 in
  if not (b >= 0.0 && b < 1e-6) then Alcotest.failf "truncation bound %g" b;
  if not (Queue_ref.truncation_bound mm1k ~horizon:5.0 > b) then
    Alcotest.fail "a shorter horizon must loosen the bound"

(* The solver against the simulator: a Chow-Robbins run on the bundled
   model must land within its interval scaled to a 1e-6 miss rate. *)
let test_queue_vs_cost_run () =
  let src =
    In_channel.with_open_text "../../examples/models/mm1k_priced.slim" In_channel.input_all
  in
  let m = Result.get_ok (Slimsim.load_string src) in
  let delta = 0.05 in
  match
    Slimsim.check_cost ~seed:7L ~generator:Slimsim.Generator.Chow_robbins m
      ~query:"E[w ; <> [0, 100] served = 5]" ~strategy:Slimsim.Strategy.Asap ~delta
      ~eps:0.05 ()
  with
  | Ok (Slimsim.Cost_expected r) ->
    let exact = (Queue_ref.first_passage_reward mm1k).Queue_ref.mean in
    let module C = Slimsim_sim.Cost_run in
    let hw = (r.C.cost_ci_high -. r.C.cost_ci_low) /. 2.0 in
    let widen =
      Slimsim_stats.Bound.normal_quantile (1.0 -. 5e-7)
      /. Slimsim_stats.Bound.normal_quantile (1.0 -. (delta /. 2.0))
    in
    let err = Float.abs (r.C.cost_mean -. exact) in
    if err > widen *. hw then
      Alcotest.failf "E[w] %.5f vs exact %.5f: error %.5f beyond %.5f"
        r.C.cost_mean exact err (widen *. hw)
  | Ok _ -> Alcotest.fail "not an expectation"
  | Error e -> Alcotest.fail e

let row model property certificate = { Golden.model; property; certificate }

let test_golden_lines () =
  let parse = Golden.parse_line in
  Alcotest.(check bool) "comment" true (parse "# a|b|P0" = Ok None);
  Alcotest.(check bool) "blank" true (parse "   " = Ok None);
  Alcotest.(check bool) "row" true
    (parse "gps.slim|P(<> [0, 300] true)|P1"
    = Ok (Some (row "gps.slim" "P(<> [0, 300] true)" "P1")));
  Alcotest.(check bool) "trimmed" true
    (parse " mm1k.slim | P(<> [0, 100] q < 0) | P0 "
    = Ok (Some (row "mm1k.slim" "P(<> [0, 100] q < 0)" "P0")));
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed row %S" bad)
    [ "gps.slim|P(<> [0, 1] true)"; "gps.slim|p|maybe"; "|p|P0"; "a|b|c|P0" ]

let test_golden_file () =
  match Golden.read_file "../../test/prepass.golden" with
  | Error e -> Alcotest.fail e
  | Ok rows ->
    Alcotest.(check int) "rows" 13 (List.length rows);
    Alcotest.(check bool) "first row" true
      (List.hd rows = row "gps.slim" "P(<> [0, 300] false)" "P0");
    Alcotest.(check bool) "missing file" true
      (Result.is_error (Golden.read_file "no-such-file.golden"))

let () =
  Alcotest.run "perfbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles;
          Alcotest.test_case "percentile and median" `Quick test_percentile;
        ] );
      ( "queue reference",
        [
          Alcotest.test_case "closed form" `Quick test_queue_closed_form;
          Alcotest.test_case "horizon truncation" `Quick test_queue_truncation;
          Alcotest.test_case "agrees with Cost_run" `Quick test_queue_vs_cost_run;
        ] );
      ( "golden reader",
        [
          Alcotest.test_case "lines" `Quick test_golden_lines;
          Alcotest.test_case "bundled file" `Quick test_golden_file;
        ] );
    ]
