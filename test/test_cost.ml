(* Priced-STA cost queries and the histogram/parser correctness sweep.

   Anchors:
   - the three satellite bugs (power-of-two bucket placement, Prometheus
     label escaping, non-finite property bounds) each have a regression
     test that failed before the fix;
   - cost accumulation must leave non-cost verdict streams bit-identical
     (engine on/off, interpreted vs compiled);
   - E[cost] on an analytically known model (exponential firing time,
     truncated at the horizon) must fall inside the reported CI across
     seeds, under both fixed-N and Chow-Robbins stopping;
   - the D[...] rendering is pinned byte-for-byte at a fixed seed;
   - checkpoints carrying a cost block round-trip, resume to the same
     result, and cross-resume against classic checkpoints is rejected;
   - a priced campaign is the shared campaign kernel: workers, quota
     stepping, park and checkpoint/resume across worker counts give
     byte-identical cost results. *)

module Loader = Slimsim_slim.Loader
module Pattern = Slimsim_props.Pattern
module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Campaign = Slimsim_sim.Campaign
module Cost_run = Slimsim_sim.Cost_run
module Supervisor = Slimsim_sim.Supervisor
module Generator = Slimsim_stats.Generator
module Rng = Slimsim_stats.Rng
module Metrics = Slimsim_obs.Metrics
module Compiled = Slimsim_sta.Compiled

let load src =
  match Loader.load_string src with
  | Ok l -> l.Loader.network
  | Error e -> Alcotest.failf "load failed: %s" e

let goal net src =
  match Loader.parse_goal net src with
  | Ok g -> g
  | Error e -> Alcotest.failf "goal failed: %s" e

let cost_var net src =
  match Pattern.resolve_cost net src with
  | Ok v -> v
  | Error e -> Alcotest.failf "cost var failed: %s" e

(* --- satellite 1: exact powers of two land in their own bucket --- *)

let test_bucket_powers_of_two () =
  (* frexp returns 2^k as (0.5, k+1); before the fix an exact power of
     two was placed one bucket too high, so an observation of exactly
     1.0 was reported as (1, 2] instead of (0.5, 1]. *)
  List.iter
    (fun v ->
      let i = Metrics.bucket_of v in
      Alcotest.(check string)
        (Printf.sprintf "upper bound of the bucket holding %g" v)
        (Printf.sprintf "%g" v)
        (Metrics.bucket_upper i))
    [ 0.5; 1.0; 2.0; 4.0; 1024.0; 0.25 ];
  (* non-powers keep their generic placement *)
  Alcotest.(check string) "1.5 lands in (1, 2]" "2"
    (Metrics.bucket_upper (Metrics.bucket_of 1.5));
  Alcotest.(check string) "0.75 lands in (0.5, 1]" "1"
    (Metrics.bucket_upper (Metrics.bucket_of 0.75));
  (* and the rendered cumulative counts agree: observing 0.5, 1, 2, 4
     must produce cumulative counts 1, 2, 3, 4 at those le bounds *)
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  let h =
    Metrics.histogram "test_cost_pow2" ~help:"power-of-two regression"
  in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 4.0 ];
  let rendered = Metrics.render () in
  List.iter
    (fun (le, cum) ->
      let line = Printf.sprintf "test_cost_pow2_bucket{le=\"%s\"} %d" le cum in
      if
        not
          (List.mem line
             (String.split_on_char '\n' rendered))
      then
        Alcotest.failf "expected rendered line %S, got:\n%s" line rendered)
    [ ("0.5", 1); ("1", 2); ("2", 3); ("4", 4) ];
  Metrics.reset ();
  Metrics.set_enabled was

(* --- satellite 2: Prometheus label escaping --- *)

let test_label_escaping () =
  (* the exposition format escapes exactly backslash, double quote and
     newline; tabs and multi-byte UTF-8 pass through verbatim.  OCaml's
     %S (the previous implementation) emitted \t, \009-style decimal
     escapes and per-byte escapes for UTF-8, which scrapers reject. *)
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  let value = "tab\there \"quoted\" line\nbreak caf\xc3\xa9 back\\slash" in
  let c =
    Metrics.counter
      ~labels:[ ("note", value) ]
      "test_cost_escape" ~help:"label escaping regression"
  in
  Metrics.incr c;
  let rendered = Metrics.render () in
  let expected =
    "test_cost_escape{note=\"tab\there \\\"quoted\\\" line\\nbreak \
     caf\xc3\xa9 back\\\\slash\"} 1"
  in
  if not (List.mem expected (String.split_on_char '\n' rendered)) then
    Alcotest.failf "expected rendered line %S, got:\n%s" expected rendered;
  Metrics.reset ();
  Metrics.set_enabled was

(* --- satellite 3: non-finite bounds are rejected --- *)

let expect_error name = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name

let test_nonfinite_bounds () =
  expect_error "nan horizon (CSL)" (Pattern.parse "P(<> [0, nan] goal)");
  expect_error "inf horizon (CSL)" (Pattern.parse "P(<> [0, inf] goal)");
  expect_error "nan lower bound" (Pattern.parse "P(<> [nan, 10] goal)");
  expect_error "negative-zero horizon" (Pattern.parse "P(<> [0, -0.0] goal)");
  expect_error "inf horizon (pattern)"
    (Pattern.parse "probability that goal within inf");
  expect_error "nan horizon (pattern)"
    (Pattern.parse "probability that goal within nan");
  expect_error "nan horizon (until)" (Pattern.parse "P(h U [0, nan] goal)");
  (* the same validation applies to the cost bound C *)
  expect_error "nan cost bound" (Pattern.parse_query "P(<> [c <= nan] goal)");
  expect_error "inf cost bound" (Pattern.parse_query "P(<> [c <= inf] goal)");
  expect_error "zero cost bound" (Pattern.parse_query "P(<> [c <= 0] goal)");
  expect_error "negative cost bound"
    (Pattern.parse_query "P(<> [c <= -1.5] goal)");
  expect_error "nan horizon inside E"
    (Pattern.parse_query "E[c ; <> [0, nan] goal]");
  expect_error "invariance inside D"
    (Pattern.parse_query "D[c ; [] [0, 10] goal]");
  (* and the accepted forms still parse *)
  (match Pattern.parse_query "P(<> [c <= 7.5] goal)" with
  | Ok (Pattern.Cost_reach { cost_src; cost_bound; goal_src }) ->
    Alcotest.(check string) "cost src" "c" cost_src;
    Alcotest.(check (float 0.0)) "cost bound" 7.5 cost_bound;
    Alcotest.(check string) "goal src" "goal" goal_src
  | Ok _ -> Alcotest.fail "expected Cost_reach"
  | Error e -> Alcotest.failf "cost reach failed to parse: %s" e);
  (match Pattern.parse_query "E[c ; <> [0, 10] goal]" with
  | Ok (Pattern.Cost_expect { cost_src; prob }) ->
    Alcotest.(check string) "E cost src" "c" cost_src;
    Alcotest.(check (float 0.0)) "E horizon" 10.0 prob.Pattern.horizon
  | Ok _ -> Alcotest.fail "expected Cost_expect"
  | Error e -> Alcotest.failf "E query failed to parse: %s" e);
  (match Pattern.parse_query "D[c ; h U [0, 10] goal]" with
  | Ok (Pattern.Cost_dist { prob; _ }) ->
    Alcotest.(check (option string)) "D hold" (Some "h") prob.Pattern.hold_src
  | Ok _ -> Alcotest.fail "expected Cost_dist"
  | Error e -> Alcotest.failf "D query failed to parse: %s" e);
  (match Pattern.parse_query "P(<> [0, 10] goal)" with
  | Ok (Pattern.Prob _) -> ()
  | Ok _ -> Alcotest.fail "plain probability must stay Prob"
  | Error e -> Alcotest.failf "plain probability failed: %s" e)

(* --- the analytic model: one exponential firing, cost = firing time ---

   The clock c is never reset, so the cost at the goal crossing is the
   Exp(1) firing time conditioned on being at most the horizon u:
   E[T | T <= u] = 1 - u e^{-u} / (1 - e^{-u}). *)

let exp_model =
  {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
subcomponents
  c: data clock;
modes
  start: initial mode;
  good: mode;
transitions
  start -[rate 1.0 then v := true]-> good;
end D.I;
root D.I;
|}

let truncated_mean u = 1.0 -. (u *. exp (-.u) /. (1.0 -. exp (-.u)))

let create_cost ?supervisor ?workers ?(kind = Generator.Chow_robbins)
    ?(delta = 0.01) ?(eps = 0.05) ?(seed = 1L) ?(horizon = 6.0) ?engine
    ?(query = "E[c ; <> [0, 6] v]") () =
  let net = load exp_model in
  let g = goal net "v" in
  let cv = cost_var net "c" in
  Campaign.create ~seed ?supervisor ?workers ?engine ~cost:(cv, query) net
    ~goal:g ~horizon ~strategy:Strategy.Asap
    ~generator:(Generator.create kind ~delta ~eps) ()

let make_cost ?supervisor ?workers ?kind ?delta ?eps ?seed ?horizon ?engine
    ?query () =
  match
    create_cost ?supervisor ?workers ?kind ?delta ?eps ?seed ?horizon ?engine
      ?query ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "cost create failed: %s" (Path.error_to_string e)

(* Drive a priced campaign to its cost result ([delta] must be the
   campaign's). *)
let drive ?(delta = 0.01) c =
  Result.map (Cost_run.of_campaign ~delta c) (Campaign.drive c)

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "cost run failed: %s" (Path.error_to_string e)

let test_expected_cost_analytic () =
  let truth = truncated_mean 6.0 in
  List.iter
    (fun seed ->
      (* Chow-Robbins: stop when the cost mean's CLT half-width is below
         eps *)
      let r = ok (drive (make_cost ~seed ())) in
      if not (r.Cost_run.cost_ci_low <= truth && truth <= r.Cost_run.cost_ci_high)
      then
        Alcotest.failf
          "seed %Ld (chow-robbins): analytic E[cost] %.6f outside CI [%.6f, \
           %.6f]"
          seed truth r.Cost_run.cost_ci_low r.Cost_run.cost_ci_high;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: half-width at most eps" seed)
        true
        ((r.Cost_run.cost_ci_high -. r.Cost_run.cost_ci_low) /. 2.0
        <= 0.05 +. 1e-9);
      (* fixed-N: the Chernoff generator runs its planned path count and
         the cost interval covers whatever sat paths that bought *)
      let r2 =
        ok
          (drive
             (make_cost ~seed ~kind:Generator.Chernoff ~delta:0.01 ~eps:0.02 ()))
      in
      Alcotest.(check (option int))
        (Printf.sprintf "seed %Ld: chernoff runs its planned count" seed)
        (Generator.planned_samples
           (Generator.create Generator.Chernoff ~delta:0.01 ~eps:0.02))
        (Some r2.Cost_run.reach.Campaign.paths);
      if
        not
          (r2.Cost_run.cost_ci_low <= truth
          && truth <= r2.Cost_run.cost_ci_high)
      then
        Alcotest.failf
          "seed %Ld (chernoff): analytic E[cost] %.6f outside CI [%.6f, %.6f]"
          seed truth r2.Cost_run.cost_ci_low r2.Cost_run.cost_ci_high)
    [ 1L; 2L; 3L ]

(* --- determinism: cost accumulation never perturbs verdicts --- *)

let test_cost_off_on_bit_identical () =
  let net = load exp_model in
  let g = goal net "v" in
  let cv = cost_var net "c" in
  let cfg = Path.default_config ~horizon:6.0 in
  let n = 400 in
  let seed = 42L in
  (* interpreted engine: with and without the cost observer *)
  let run_interp cost path =
    let rng = Rng.for_path ~seed ~path in
    fst (Path.generate ?cost net cfg Strategy.Asap rng ~goal:g)
  in
  let cell = ref nan in
  let interp_costs = ref [] in
  for path = 0 to n - 1 do
    let plain = run_interp None path in
    cell := nan;
    let priced = run_interp (Some (cv, cell)) path in
    if plain <> priced then
      Alcotest.failf "path %d: verdict changed with cost accumulation on" path;
    match priced with
    | Ok (Path.Sat _) -> interp_costs := !cell :: !interp_costs
    | _ -> ()
  done;
  (* compiled engine: verdicts bit-identical to the interpreter, and the
     extracted costs are float-equal between the two engines *)
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:g in
  let s = Compiled.scratch c in
  let ccell = ref nan in
  let compiled_costs = ref [] in
  for path = 0 to n - 1 do
    let rng = Rng.for_path ~seed ~path in
    ccell := nan;
    let v = Path.generate_compiled ~cost:(cv, ccell) c s q cfg Strategy.Asap rng in
    let rng' = Rng.for_path ~seed ~path in
    let v' = fst (Path.generate net cfg Strategy.Asap rng' ~goal:g) in
    if v <> v' then
      Alcotest.failf "path %d: compiled verdict differs from interpreted" path;
    match v with
    | Ok (Path.Sat _) -> compiled_costs := !ccell :: !compiled_costs
    | _ -> ()
  done;
  Alcotest.(check bool) "some sat paths were observed" true
    (List.length !interp_costs > 0);
  Alcotest.(check (list (float 0.0))) "engine-exact cost values"
    (List.rev !interp_costs) (List.rev !compiled_costs);
  (* the cost is the Sat crossing time here (unit-rate clock, never
     reset), so the extraction is exact by construction *)
  List.iter
    (fun c ->
      if c <> c || c < 0.0 || c > 6.0 then
        Alcotest.failf "cost %.17g outside [0, horizon]" c)
    !interp_costs

(* --- golden: the D[...] rendering at a fixed seed ---

   Mirrors examples/models/gps_nominal.slim: acquisition takes a
   non-deterministic 10..120 s, and the progressive strategy samples the
   delay uniformly, so the distribution has real spread.  Everything
   printed by pp_distribution is a deterministic function of the bucket
   counts — no wall clock — so the output is pinned byte for byte. *)

let gps_nominal =
  {|
device GPS
features
  measurement: out data port bool := false;
end GPS;
device implementation GPS.Imp
subcomponents
  x: data clock;
modes
  acquisition: initial mode while x <= 120.0;
  active: mode;
transitions
  acquisition -[when x >= 10.0 then measurement := true]-> active;
end GPS.Imp;
root GPS.Imp;
|}

let test_distribution_golden () =
  let net = load gps_nominal in
  let g = goal net "measurement" in
  let cv = cost_var net "x" in
  let t =
    match
      Campaign.create ~seed:1L
        ~cost:(cv, "D[x ; <> [0, 300] measurement]")
        net ~goal:g ~horizon:300.0 ~strategy:Strategy.Progressive
        ~generator:(Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.05)
        ()
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "create failed: %s" (Path.error_to_string e)
  in
  let r = ok (drive ~delta:0.05 t) in
  let got = Fmt.str "%a" Cost_run.pp_distribution r in
  let expected =
    "cost distribution (5903 sat paths):\n\
    \  mean 65.2269  ci [64.4159, 66.0379]  min 10.0008  max 119.987\n\
    \  quantiles:  p10 <= 32  p25 <= 64  p50 <= 128  p75 <= 128  p90 <= 128  \
     p95 <= 128  p99 <= 128\n\
    \  (8, 16]                   322  ####\n\
    \  (16, 32]                  875  ###########\n\
    \  (32, 64]                 1668  #####################\n\
    \  (64, 128]                3038  ########################################\n"
  in
  Alcotest.(check string) "pinned distribution rendering" expected got

(* --- checkpointing: round-trip, resume, and cross-resume rejection --- *)

let with_tmp f =
  let file = Filename.temp_file "slimsim_cost" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let test_checkpoint_roundtrip () =
  with_tmp (fun file ->
      let buckets = Array.make Metrics.n_buckets 0 in
      buckets.(33) <- 3;
      buckets.(40) <- 2;
      let st =
        {
          Supervisor.Checkpoint.seed = 7L;
          kind = Generator.Chow_robbins;
          delta = 0.05;
          eps = 0.1;
          next_path = 9;
          trials = 9;
          successes = 5;
          deadlocks = 1;
          violated = 0;
          errors = 0;
          diverged = 0;
          dropped = 0;
          leases = [];
          cost =
            Some
              {
                Supervisor.Checkpoint.c_query = "E[c ; <> [0, 6] v]";
                c_count = 5;
                c_mean = 1.25;
                c_m2 = 0.5;
                c_min = 0.25;
                c_max = 3.5;
                c_buckets = buckets;
              };
        }
      in
      Supervisor.Checkpoint.save ~file st;
      match Supervisor.Checkpoint.load ~file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok st' ->
        Alcotest.(check bool) "identical state" true (st = st'))

let classic_checkpoint file =
  Supervisor.Checkpoint.save ~file
    {
      Supervisor.Checkpoint.seed = 7L;
      kind = Generator.Chow_robbins;
      delta = 0.05;
      eps = 0.1;
      next_path = 4;
      trials = 4;
      successes = 2;
      deadlocks = 0;
      violated = 0;
      errors = 0;
      diverged = 0;
      dropped = 0;
      leases = [];
      cost = None;
    }

let resume_sup file =
  Supervisor.create ~checkpoint:{ Supervisor.file; every = 1000 } ~resume:true ()

let test_cross_resume_rejected () =
  (* a cost checkpoint must not resume a classic campaign ... *)
  with_tmp (fun file ->
      (* write a cost checkpoint: drive a fresh run to completion
         (finish_with always saves) *)
      let sup1 =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 1000 } ()
      in
      let t =
        make_cost ~supervisor:sup1 ~seed:7L ~delta:0.05 ~eps:0.1
          ~query:"E[c ; <> [0, 6] v]" ()
      in
      let _ = ok (Campaign.drive t) in
      let sup = resume_sup file in
      let gen = Generator.create Generator.Chow_robbins ~delta:0.05 ~eps:0.1 in
      (match Campaign.resume_base sup gen (Campaign.new_tally ()) ~seed:7L with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "classic resume accepted a cost checkpoint");
      (* ... and a cost resume under a different query is rejected *)
      match
        create_cost ~supervisor:sup ~seed:7L ~delta:0.05 ~eps:0.1
          ~query:"E[c ; <> [0, 99] v]" ()
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "cost resume accepted a different query");
  (* a classic checkpoint must not resume a cost campaign *)
  with_tmp (fun file ->
      classic_checkpoint file;
      let sup = resume_sup file in
      match
        create_cost ~supervisor:sup ~seed:7L ~delta:0.05 ~eps:0.1
          ~query:"E[c ; <> [0, 6] v]" ()
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "cost resume accepted a classic checkpoint")

let test_resume_reproduces_uninterrupted () =
  let uninterrupted = ok (drive (make_cost ~seed:5L ())) in
  with_tmp (fun file ->
      (* run the first slice with periodic checkpoints, abandon it, then
         resume from the file: the final accumulator must be identical *)
      let sup1 =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 } ()
      in
      let t1 = make_cost ~supervisor:sup1 ~seed:5L () in
      (match Campaign.step ~quota:130 t1 with
      | Campaign.Running -> ()
      | Campaign.Done _ -> Alcotest.fail "converged before the interrupt point"
      | Campaign.Failed e ->
        Alcotest.failf "first slice failed: %s" (Path.error_to_string e));
      let sup2 =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 }
          ~resume:true ()
      in
      let t2 = make_cost ~supervisor:sup2 ~seed:5L () in
      let resumed = ok (drive t2) in
      Alcotest.(check int) "same sat count" uninterrupted.Cost_run.cost_samples
        resumed.Cost_run.cost_samples;
      Alcotest.(check (float 0.0)) "same mean" uninterrupted.Cost_run.cost_mean
        resumed.Cost_run.cost_mean;
      Alcotest.(check (float 0.0)) "same ci low"
        uninterrupted.Cost_run.cost_ci_low resumed.Cost_run.cost_ci_low;
      Alcotest.(check (float 0.0)) "same ci high"
        uninterrupted.Cost_run.cost_ci_high resumed.Cost_run.cost_ci_high;
      Alcotest.(check (float 0.0)) "same min" uninterrupted.Cost_run.cost_min
        resumed.Cost_run.cost_min;
      Alcotest.(check (float 0.0)) "same max" uninterrupted.Cost_run.cost_max
        resumed.Cost_run.cost_max;
      Alcotest.(check (array int)) "same buckets"
        uninterrupted.Cost_run.cost_buckets resumed.Cost_run.cost_buckets;
      Alcotest.(check int) "same total paths"
        uninterrupted.Cost_run.reach.Campaign.paths
        resumed.Cost_run.reach.Campaign.paths)

(* The multilevel generator is gone: naming it for a cost query (or
   passing its level option) is a usage error, never a crash. *)
let test_mlmc_kind_rejected () =
  let bin =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/slimsim_cli.exe"
  in
  let model = Filename.temp_file "slimsim_cost" ".slim" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove model with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text model (fun oc -> output_string oc exp_model);
      let status extra =
        Sys.command
          (Filename.quote_command bin ~stdout:Filename.null
             ~stderr:Filename.null
             ([ "simulate"; model; "--query"; "E[c ; <> [0, 6] v]"; "-e"; "0.1";
                "--no-lint" ]
             @ extra))
      in
      Alcotest.(check int) "a valid generator runs" 0
        (status [ "--generator"; "chow-robbins" ]);
      List.iter
        (fun extra ->
          let code = status extra in
          if code = 0 then
            Alcotest.failf "%s accepted" (String.concat " " extra))
        [ [ "--generator"; "mlmc" ]; [ "--mlmc-levels"; "2" ] ])

let test_resolve_cost_rejects_discrete () =
  let net = load exp_model in
  (match Pattern.resolve_cost net "v" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "discrete variable accepted as a cost observer");
  match Pattern.resolve_cost net "c >= 1.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compound expression accepted as a cost observer"

(* --- one kernel: every schedule gives the same cost result ---

   A priced campaign is the classic campaign with a cost fold, so worker
   count, quota slicing, parking and a checkpoint taken at one worker
   count and resumed at another must all reproduce the single-worker
   result byte for byte — the sequential Chow-Robbins rule (E on the
   exponential model) and a fixed-size plan (D on gps nominal) alike. *)

let render r = Fmt.str "%a" Cost_run.pp_distribution r

let same_cost name (a : Cost_run.result) (b : Cost_run.result) =
  Alcotest.(check (float 0.0)) (name ^ ": cost_mean") a.Cost_run.cost_mean
    b.Cost_run.cost_mean;
  Alcotest.(check (array int)) (name ^ ": cost_buckets") a.Cost_run.cost_buckets
    b.Cost_run.cost_buckets;
  Alcotest.(check string) (name ^ ": distribution") (render a) (render b)

let step_through ~park c =
  let quotas = [| 1; 7; 3; 29; 5 |] in
  let rec loop i =
    match Campaign.step ~quota:quotas.(i mod Array.length quotas) c with
    | Campaign.Running ->
      if park then Campaign.park c;
      loop (i + 1)
    | Campaign.Done r -> r
    | Campaign.Failed e ->
      Alcotest.failf "cost campaign failed: %s" (Path.error_to_string e)
  in
  loop 0

let check_schedules ~delta
    (make : ?workers:int -> ?supervisor:Supervisor.t -> unit -> Campaign.t) =
  let result c r = Cost_run.of_campaign ~delta c r in
  let drive_at workers =
    let c = make ~workers () in
    result c (ok (Campaign.drive c))
  in
  let reference = drive_at 1 in
  Alcotest.(check bool) "sat paths observed" true (reference.Cost_run.cost_samples > 0);
  List.iter
    (fun w -> same_cost (Printf.sprintf "-j %d" w) reference (drive_at w))
    [ 2; 3 ];
  let c = make ~workers:1 () in
  same_cost "small-quota step" reference (result c (step_through ~park:false c));
  let c = make ~workers:2 () in
  same_cost "park" reference (result c (step_through ~park:true c));
  with_tmp (fun file ->
      let sup1 = Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 } () in
      let c1 = make ~workers:2 ~supervisor:sup1 () in
      (match Campaign.step ~quota:130 c1 with
      | Campaign.Running -> Campaign.park c1
      | Campaign.Done _ -> Alcotest.fail "converged before the checkpoint"
      | Campaign.Failed e ->
        Alcotest.failf "first slice failed: %s" (Path.error_to_string e));
      let sup2 =
        Supervisor.create ~checkpoint:{ Supervisor.file; every = 50 } ~resume:true ()
      in
      let c2 = make ~workers:1 ~supervisor:sup2 () in
      Alcotest.(check int) "resumed at the parked cursor" 130 (Campaign.consumed c2);
      same_cost "checkpoint at -j 2, resume at -j 1" reference
        (result c2 (ok (Campaign.drive c2))))

let test_expected_cost_schedules () =
  check_schedules ~delta:0.01 (fun ?workers ?supervisor () ->
      make_cost ?workers ?supervisor ~seed:3L ())

let test_distribution_schedules () =
  let net = load gps_nominal in
  let g = goal net "measurement" in
  let cv = cost_var net "x" in
  check_schedules ~delta:0.05 (fun ?workers ?supervisor () ->
      match
        Campaign.create ?workers ?supervisor ~seed:2L
          ~cost:(cv, "D[x ; <> [0, 300] measurement]")
          net ~goal:g ~horizon:300.0 ~strategy:Strategy.Progressive
          ~generator:(Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.05)
          ()
      with
      | Ok c -> c
      | Error e -> Alcotest.failf "create failed: %s" (Path.error_to_string e))

let suite =
  [
    Alcotest.test_case "bucket: exact powers of two" `Quick
      test_bucket_powers_of_two;
    Alcotest.test_case "metrics: label escaping" `Quick test_label_escaping;
    Alcotest.test_case "parser: non-finite bounds rejected" `Quick
      test_nonfinite_bounds;
    Alcotest.test_case "E[cost] matches the truncated mean" `Slow
      test_expected_cost_analytic;
    Alcotest.test_case "cost observer leaves verdicts bit-identical" `Quick
      test_cost_off_on_bit_identical;
    Alcotest.test_case "D[...] rendering is pinned" `Quick
      test_distribution_golden;
    Alcotest.test_case "checkpoint: cost block round-trips" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint: cross-resume rejected" `Quick
      test_cross_resume_rejected;
    Alcotest.test_case "checkpoint: resume reproduces the run" `Quick
      test_resume_reproduces_uninterrupted;
    Alcotest.test_case "mlmc generator rejected" `Quick test_mlmc_kind_rejected;
    Alcotest.test_case "E[...] identical across schedules" `Quick
      test_expected_cost_schedules;
    Alcotest.test_case "D[...] identical across schedules" `Quick
      test_distribution_schedules;
    Alcotest.test_case "cost observer must be clock/continuous" `Quick
      test_resolve_cost_rejects_discrete;
  ]
