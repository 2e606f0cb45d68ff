(* Cross-checks for the staged compiled core (Slimsim_sta.Compiled):
   property tests comparing compiled closures against the reference
   interpreter on random expressions and states, end-to-end
   verdict-stream equality on the bundled models, and the engine-level
   guarantees around error/violation accounting. *)

module Expr = Slimsim_sta.Expr
module Value = Slimsim_sta.Value
module Linear = Slimsim_sta.Linear
module Compiled = Slimsim_sta.Compiled
module I = Slimsim_intervals.Interval_set
module Loader = Slimsim_slim.Loader
module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Campaign = Slimsim_sim.Campaign
module Generator = Slimsim_stats.Generator
module Rng = Slimsim_stats.Rng
module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Random expressions and states over a small synthetic signature      *)

let n_vars = 4
let n_procs = 2
let n_locs = 3

let gen_value =
  Gen.oneof
    [
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun n -> Value.Int n) (Gen.int_range (-4) 4);
      Gen.map
        (fun x -> Value.Real x)
        (Gen.oneofl [ -2.5; -1.0; -0.25; 0.0; 0.5; 1.0; 3.25 ]);
    ]

let gen_leaf =
  Gen.oneof
    [
      Gen.map (fun v -> Expr.Const v) gen_value;
      Gen.map (fun v -> Expr.Var v) (Gen.int_range 0 (n_vars - 1));
      Gen.map2
        (fun p l -> Expr.Loc (p, l))
        (Gen.int_range 0 (n_procs - 1))
        (Gen.int_range 0 (n_locs - 1));
    ]

let gen_binop =
  Gen.oneofl
    [
      Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.And; Expr.Or;
      Expr.Implies; Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge;
      Expr.Min; Expr.Max;
    ]

(* Depth-bounded: at most 2^4 = 16 leaves with |const| <= 4, so integer
   intermediates stay far below 2^53 and never wrap — the domain on
   which the compiled unboxed arithmetic provably agrees bit-for-bit
   with the interpreter (the documented deviation is integers beyond
   the double mantissa, which SLIM models never produce). *)
let gen_expr =
  Gen.fix
    (fun self depth ->
      if depth <= 0 then gen_leaf
      else
        Gen.frequency
          [
            (1, gen_leaf);
            ( 2,
              Gen.map2
                (fun op e -> Expr.Unop (op, e))
                (Gen.oneofl [ Expr.Neg; Expr.Not ])
                (self (depth - 1)) );
            ( 4,
              Gen.map3
                (fun op e1 e2 -> Expr.Binop (op, e1, e2))
                gen_binop
                (self (depth - 1))
                (self (depth - 1)) );
            ( 1,
              Gen.map3
                (fun c e1 e2 -> Expr.Ite (c, e1, e2))
                (self (depth - 1))
                (self (depth - 1))
                (self (depth - 1)) );
          ])
    4

(* Rates concentrate on 0 so that the delay-invariant fast paths and
   affine paths are both exercised. *)
let gen_state =
  let open Gen in
  let* vals = array_size (pure n_vars) gen_value in
  let* rates =
    array_size (pure n_vars) (oneofl [ 0.0; 0.0; 0.0; 1.0; -0.5; 2.0 ])
  in
  let* locs = array_size (pure n_procs) (int_range 0 (n_locs - 1)) in
  pure (vals, rates, locs)

let gen_case = Gen.pair gen_expr gen_state

(* Interpreted entry points over plain arrays. *)
let env_of vals v = vals.(v)
let at_loc_of locs p l = locs.(p) = l

let cstate_of (vals, rates, locs) =
  Compiled.cstate_of ~locs ~vals ~rates ~time:0.0

(* The compiled core matches the interpreter up to the *message* carried
   by a type error on ill-typed input (the exception, and hence the
   verdict, is the same) — so outcomes compare by constructor class. *)
type 'a outcome = V of 'a | Type_err | Non_linear

let classify f =
  match f () with
  | v -> V v
  | exception Value.Type_error _ -> Type_err
  | exception Linear.Nonlinear _ -> Non_linear

let same_outcome equal o1 o2 =
  match o1, o2 with
  | V a, V b -> equal a b
  | Type_err, Type_err | Non_linear, Non_linear -> true
  | _ -> false

let prop count name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let value_equal a b = compare a b = 0 (* structural, NaN-safe *)
let float_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let prop_value ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () -> Expr.eval ~env:(env_of vals) ~at_loc:(at_loc_of locs) e)
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_value e s) in
  same_outcome value_equal interp compiled

let prop_bool ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () ->
        Expr.eval_bool ~env:(env_of vals) ~at_loc:(at_loc_of locs) e)
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_bool e s) in
  same_outcome Bool.equal interp compiled

let prop_float ((e, ((vals, _, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () ->
        Value.as_float (Expr.eval ~env:(env_of vals) ~at_loc:(at_loc_of locs) e))
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_float e s) in
  same_outcome float_equal interp compiled

let prop_sat ((e, ((vals, rates, locs) as st)) : Expr.t * _) =
  let interp =
    classify (fun () ->
        Linear.sat_set ~env:(env_of vals)
          ~rate:(fun v -> rates.(v))
          ~at_loc:(at_loc_of locs) e)
  in
  let s = cstate_of st in
  let compiled = classify (fun () -> Compiled.compile_sat e s) in
  same_outcome I.equal interp compiled

(* ------------------------------------------------------------------ *)
(* End-to-end verdict-stream equality on the bundled models            *)

let load src =
  match Loader.load_string src with
  | Ok l -> l.Loader.network
  | Error e -> Alcotest.failf "load failed: %s" e

let goal net src =
  match Loader.parse_goal net src with
  | Ok g -> g
  | Error e -> Alcotest.failf "goal failed: %s" e

let strategies =
  [ Strategy.Asap; Strategy.Progressive; Strategy.Local; Strategy.Max_time ]

let check_verdict_stream ~name ?hold_src ~goal_src ~horizon ~seeds src =
  let net = load src in
  let g = goal net goal_src in
  let hold = Option.map (goal net) hold_src in
  let cfg = Path.default_config ~horizon in
  let c = Compiled.compile net in
  let q = Path.compile_query ?hold c ~goal:g in
  let s = Compiled.scratch c in
  List.iter
    (fun strategy ->
      for seed = 1 to seeds do
        let seed = Int64.of_int seed in
        let interp =
          fst
            (Path.generate ?hold net cfg strategy (Rng.for_path ~seed ~path:0)
               ~goal:g)
        in
        let compiled =
          Path.generate_compiled c s q cfg strategy (Rng.for_path ~seed ~path:0)
        in
        let show = function
          | Ok v -> Path.verdict_to_string v
          | Error e -> Path.error_to_string e
        in
        if compare interp compiled <> 0 then
          Alcotest.failf "%s (%s, seed %Ld): interpreted %s vs compiled %s" name
            (Strategy.to_string strategy)
            seed (show interp) (show compiled)
      done)
    strategies

let test_verdicts_gps_nominal () =
  check_verdict_stream ~name:"gps nominal"
    ~goal_src:Slimsim_models.Gps.goal_acquired ~horizon:200.0 ~seeds:10
    Slimsim_models.Gps.nominal_only

let test_verdicts_gps_full () =
  check_verdict_stream ~name:"gps full"
    ~goal_src:Slimsim_models.Gps.goal_no_fix ~horizon:300.0 ~seeds:10
    Slimsim_models.Gps.source

let test_verdicts_sensor_filter () =
  check_verdict_stream ~name:"sensor-filter n=2"
    ~goal_src:(Slimsim_models.Sensor_filter.goal_all_failed ~n:2)
    ~horizon:1800.0 ~seeds:10
    (Slimsim_models.Sensor_filter.source ~n:2)

let test_verdicts_sensor_filter_timed () =
  check_verdict_stream ~name:"sensor-filter timed n=2"
    ~goal_src:Slimsim_models.Sensor_filter.goal_exhausted ~horizon:1800.0
    ~seeds:10
    (Slimsim_models.Sensor_filter.timed_source ~n:2)

let test_verdicts_launcher () =
  check_verdict_stream ~name:"launcher permanent"
    ~goal_src:Slimsim_models.Launcher.goal_failure ~horizon:60.0 ~seeds:5
    (Slimsim_models.Launcher.source ~variant:`Permanent);
  check_verdict_stream ~name:"launcher recoverable"
    ~goal_src:Slimsim_models.Launcher.goal_failure ~horizon:60.0 ~seeds:5
    (Slimsim_models.Launcher.source ~variant:`Recoverable)

let test_verdicts_queue_until () =
  (* Bounded until: exercises the hold/violation machinery end to end. *)
  check_verdict_stream ~name:"mm1k until" ~hold_src:"q <= 3" ~goal_src:"q = 5"
    ~horizon:50.0 ~seeds:10
    (Slimsim_models.Queue_model.source ~arrival:0.8 ~service:0.5 ~capacity:5)

(* ------------------------------------------------------------------ *)
(* Engine-level equality and the error/violation accounting            *)

let engine_result ~engine ?on_error ?hold ?config ?supervisor net ~g ~horizon
    ~strategy ~kind =
  let generator = Generator.create kind ~delta:0.1 ~eps:0.1 in
  match
    Campaign.run ~seed:23L ~engine ?on_error ?config ?supervisor
      ?hold net ~goal:g ~horizon ~strategy ~generator ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "engine run failed: %s" (Path.error_to_string e)

let test_engine_equality () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  List.iter
    (fun strategy ->
      let a =
        engine_result ~engine:`Compiled net ~g ~horizon:100.0 ~strategy
          ~kind:Generator.Chernoff
      in
      let b =
        engine_result ~engine:`Interpreted net ~g ~horizon:100.0 ~strategy
          ~kind:Generator.Chernoff
      in
      Alcotest.(check (float 0.0))
        "same probability" b.Campaign.probability a.Campaign.probability;
      Alcotest.(check int) "same paths" b.Campaign.paths a.Campaign.paths;
      Alcotest.(check int) "same successes" b.Campaign.successes a.Campaign.successes;
      Alcotest.(check int)
        "same deadlocks" b.Campaign.deadlock_paths a.Campaign.deadlock_paths)
    strategies

let test_violated_paths_counted () =
  (* In the M/M/1/5 queue, reaching q = 3 while holding q <= 1 is
     impossible without first passing q = 2: every non-horizon path is a
     violation, never a success. *)
  let net =
    load (Slimsim_models.Queue_model.source ~arrival:2.0 ~service:0.1 ~capacity:5)
  in
  let g = goal net "q = 3" in
  let hold = goal net "q <= 1" in
  let r =
    engine_result ~engine:`Compiled ~hold net ~g ~horizon:50.0
      ~strategy:Strategy.Asap ~kind:Generator.Chernoff
  in
  Alcotest.(check int) "no successes" 0 r.Campaign.successes;
  Alcotest.(check bool) "violations counted" true (r.Campaign.violated_paths > 0);
  Alcotest.(check bool)
    "violations bounded by failures" true
    (r.Campaign.violated_paths <= r.Campaign.paths - r.Campaign.successes);
  let s = Fmt.str "%a" Campaign.pp_result r in
  Alcotest.(check bool) "violations surfaced" true
    (Astring_contains.contains s "hold-violated")

let test_error_policy () =
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  (* max_steps = 0 classifies every path as diverged; the default
     supervisor aborts the campaign on the first one. *)
  let config = { (Path.default_config ~horizon:100.0) with Path.max_steps = 0 } in
  let generator = Generator.create Generator.Chernoff ~delta:0.1 ~eps:0.2 in
  (match
     Campaign.run ~config net ~goal:g ~horizon:100.0 ~strategy:Strategy.Asap
       ~generator ()
   with
  | Error (Path.Diverged_path (Path.Step_budget _)) -> ()
  | Ok _ -> Alcotest.fail "on_divergence:`Abort must surface the divergence"
  | Error e -> Alcotest.failf "unexpected error: %s" (Path.error_to_string e));
  (* `Unsat counts every diverged path as a failure. *)
  let supervisor = Slimsim_sim.Supervisor.create ~on_divergence:`Unsat () in
  let r =
    engine_result ~engine:`Compiled ~supervisor ~config net ~g ~horizon:100.0
      ~strategy:Strategy.Asap ~kind:Generator.Chernoff
  in
  Alcotest.(check int)
    "every path diverged" r.Campaign.paths r.Campaign.diverged_paths;
  Alcotest.(check (float 0.0))
    "diverged paths count as unsat" 0.0 r.Campaign.probability;
  let s = Fmt.str "%a" Campaign.pp_result r in
  Alcotest.(check bool) "divergence surfaced" true
    (Astring_contains.contains s "diverged");
  (* on_error:`Unsat still covers genuine path errors: a script that
     picks an invalid move index raises Model_error on every path. *)
  let bad_script _alts = Strategy.Fire { index = max_int; delay = 0.0 } in
  let r =
    engine_result ~engine:`Interpreted ~on_error:`Unsat net ~g ~horizon:100.0
      ~strategy:(Strategy.Scripted bad_script) ~kind:Generator.Chernoff
  in
  Alcotest.(check int) "every path errored" r.Campaign.paths r.Campaign.errors;
  Alcotest.(check (float 0.0)) "errors count as unsat" 0.0 r.Campaign.probability;
  let s = Fmt.str "%a" Campaign.pp_result r in
  Alcotest.(check bool) "errors surfaced" true
    (Astring_contains.contains s "errored")

let test_scratch_reuse_is_clean () =
  (* Reusing one scratch across paths must not leak state: the same
     seeds re-run on a fresh scratch give the same verdicts. *)
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let cfg = Path.default_config ~horizon:300.0 in
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:g in
  let run s seed =
    Path.generate_compiled c s q cfg Strategy.Progressive
      (Rng.for_path ~seed ~path:0)
  in
  let shared = Compiled.scratch c in
  let reused = List.map (run shared) [ 1L; 2L; 3L; 4L; 5L ] in
  let fresh = List.map (fun seed -> run (Compiled.scratch c) seed) [ 1L; 2L; 3L; 4L; 5L ] in
  Alcotest.(check bool) "reused scratch matches fresh" true
    (compare reused fresh = 0)

let test_obs_bit_identity () =
  (* Enabling metrics and passing an obs cell must not change a single
     verdict, on either engine: instrumentation performs no RNG draws
     and never touches simulation state. *)
  let module Metrics = Slimsim_obs.Metrics in
  let net = load Slimsim_models.Gps.source in
  let g = goal net Slimsim_models.Gps.goal_no_fix in
  let cfg = Path.default_config ~horizon:300.0 in
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:g in
  let run ?obs () =
    List.concat_map
      (fun strategy ->
        List.map
          (fun seed ->
            let s = Compiled.scratch c in
            ( Path.generate_compiled ?obs c s q cfg strategy
                (Rng.for_path ~seed ~path:0),
              fst
                (Path.generate ?obs net cfg strategy
                   (Rng.for_path ~seed ~path:1) ~goal:g) ))
          [ 1L; 2L; 3L; 4L; 5L ])
      strategies
  in
  let plain = run () in
  Metrics.set_enabled true;
  let instrumented =
    Fun.protect
      (fun () -> run ~obs:(Path.obs_cell ~worker:0) ())
      ~finally:(fun () -> Metrics.set_enabled false)
  in
  Alcotest.(check bool) "verdict streams bit-identical" true
    (compare plain instrumented = 0);
  (* and the instrumentation actually recorded, rather than no-op'ing *)
  let steps =
    Metrics.histogram
      ~labels:[ ("worker", "0") ]
      "slimsim_path_steps" ~help:"Steps taken per simulated path"
  in
  Alcotest.(check int) "every instrumented path observed"
    (2 * List.length plain)
    (Metrics.histogram_count steps);
  Metrics.reset ()

let suite =
  [
    prop 2000 "compiled value = eval" gen_case prop_value;
    prop 2000 "compiled bool = eval_bool" gen_case prop_bool;
    prop 2000 "compiled float = as_float eval" gen_case prop_float;
    prop 2000 "compiled sat = Linear.sat_set" gen_case prop_sat;
    Alcotest.test_case "verdicts: gps nominal" `Quick test_verdicts_gps_nominal;
    Alcotest.test_case "verdicts: gps full" `Quick test_verdicts_gps_full;
    Alcotest.test_case "verdicts: sensor-filter" `Quick test_verdicts_sensor_filter;
    Alcotest.test_case "verdicts: sensor-filter timed" `Quick
      test_verdicts_sensor_filter_timed;
    Alcotest.test_case "verdicts: launcher" `Slow test_verdicts_launcher;
    Alcotest.test_case "verdicts: until on mm1k" `Quick test_verdicts_queue_until;
    Alcotest.test_case "engine equality" `Slow test_engine_equality;
    Alcotest.test_case "violated paths counted" `Quick test_violated_paths_counted;
    Alcotest.test_case "error policy" `Quick test_error_policy;
    Alcotest.test_case "scratch reuse is clean" `Quick test_scratch_reuse_is_clean;
    Alcotest.test_case "observability bit-identity" `Quick test_obs_bit_identity;
  ]
