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
module Window = Slimsim_intervals.Window
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

(* The window writer against [Linear.sat_set ∩ [0, ∞)], wherever
   [compile_window] stages one; outcomes (including which of
   [Type_error] / [Nonlinear] is raised first) compare as in
   [prop_sat].  The variables at rate 0 count as untimed, so
   delay-invariant comparisons are staged too. *)
let prop_window ((e, ((vals, rates, locs) as st)) : Expr.t * _) =
  match Compiled.compile_window ~untimed:(fun v -> rates.(v) = 0.0) e with
  | None -> true
  | Some w ->
    let interp =
      classify (fun () ->
          I.inter
            (Linear.sat_set ~env:(env_of vals)
               ~rate:(fun v -> rates.(v))
               ~at_loc:(at_loc_of locs) e)
            (I.at_least 0.0))
    in
    same_outcome I.equal interp (classify (fun () -> w (cstate_of st)))

(* Conjunctions of the literals the writers stage: Boolean atoms and
   comparisons of variables and numeric constants, possibly negated. *)
let gen_convex =
  let open Gen in
  let operand =
    oneof
      [
        map (fun v -> Expr.Var v) (int_range 0 (n_vars - 1));
        map (fun n -> Expr.Const (Value.Int n)) (int_range (-4) 4);
        map (fun x -> Expr.Const (Value.Real x)) (oneofl [ -1.0; 0.0; 0.5; 2.0 ]);
      ]
  in
  let atom =
    oneof
      [
        map (fun v -> Expr.Var v) (int_range 0 (n_vars - 1));
        map2
          (fun p l -> Expr.Loc (p, l))
          (int_range 0 (n_procs - 1))
          (int_range 0 (n_locs - 1));
        map (fun b -> Expr.Const (Value.Bool b)) bool;
      ]
  in
  let literal =
    frequency
      [
        (1, atom);
        (1, map (fun a -> Expr.Unop (Expr.Not, a)) atom);
        ( 4,
          map3
            (fun op a b -> Expr.Binop (op, a, b))
            (oneofl [ Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Eq ])
            operand operand );
        ( 2,
          map3
            (fun op a b -> Expr.Unop (Expr.Not, Expr.Binop (op, a, b)))
            (oneofl [ Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ])
            operand operand );
      ]
  in
  let* n = int_range 1 4 in
  let* lits = list_size (pure n) literal in
  pure (List.fold_left Expr.and_ (List.hd lits) (List.tl lits))

let prop_convex_window ((e, st) : Expr.t * _) =
  Compiled.compile_window e <> None && prop_window (e, st)

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

(* Every seed in [1, seeds] and every path id below [paths]: the
   campaign draws one RNG stream per path id, so the oracle must hold
   across ids, not just for path 0. *)
let check_verdict_stream ~name ?hold_src ~goal_src ~horizon ~seeds
    ?(paths = 100) src =
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
        for path = 0 to paths - 1 do
          let interp =
            fst
              (Path.generate ?hold net cfg strategy (Rng.for_path ~seed ~path)
                 ~goal:g)
          in
          let compiled =
            Path.generate_compiled c s q cfg strategy (Rng.for_path ~seed ~path)
          in
          let show = function
            | Ok v -> Path.verdict_to_string v
            | Error e -> Path.error_to_string e
          in
          if compare interp compiled <> 0 then
            Alcotest.failf
              "%s (%s, seed %Ld, path %d): interpreted %s vs compiled %s" name
              (Strategy.to_string strategy)
              seed path (show interp) (show compiled)
        done
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

(* The bundled models, read from [examples/models]. *)
let bundled_models () =
  let dir = "../examples/models" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".slim")
  |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let test_verdicts_mm1k_priced () =
  (* The flow [waiting := w] reads a continuous variable, so it is
     stale after every delay until the next discrete step refreshes it;
     the goal reads the flow target. *)
  let src = List.assoc "mm1k_priced.slim" (bundled_models ()) in
  check_verdict_stream ~name:"mm1k priced" ~goal_src:"waiting >= 6.0"
    ~horizon:100.0 ~seeds:2 src

(* A worker restarted whenever its parent re-enters [on]: its owned
   clock [w], counter [k] and flow target [elapsed] reset to their
   initial values, and the parent's flows read [elapsed].  No bundled
   model uses [restart], so this is the only coverage of the flow pass
   that follows a restart. *)
let restart_model =
  {|
device Worker
features
  done_flag: out data port bool := false;
  elapsed: out data port real;
end Worker;
device implementation Worker.I
subcomponents
  w: data clock;
  k: data int [0, 9] := 0;
flows
  elapsed := w + k;
modes
  busy: initial mode while w <= 4.0;
  finished: mode;
transitions
  busy -[when w >= 3.0 then done_flag := true; k := min(k + 1, 9)]-> finished;
  finished -[rate 2.0 then done_flag := false; w := 0]-> busy;
end Worker.I;

system Main
features
  progress: out data port real;
  late: out data port bool;
end Main;
system implementation Main.Imp
subcomponents
  worker: device Worker.I in modes (on) restart;
flows
  progress := worker.elapsed * 2.0;
  late := progress > 5.0;
modes
  on: initial mode;
  off: mode;
transitions
  on -[rate 0.4]-> off;
  off -[rate 1.0]-> on;
end Main.Imp;

root Main.Imp;
|}

let test_verdicts_restart () =
  check_verdict_stream ~name:"restart" ~goal_src:"progress > 14.0"
    ~horizon:40.0 ~seeds:2 restart_model

(* Guards and invariants with no window writer: [x != 3.0] splits its
   move's window in two, [x < 1.0 or x > 2.0] is a union, and both
   invariants are disjunctions, so every window of this model goes
   through the [compile_sat] fallback; no bundled model has one. *)
let fallback_model =
  {|
device Dial
features
  hit: out data port bool := false;
  n: out data port int [0, 9] := 0;
end Dial;
device implementation Dial.I
subcomponents
  x: data clock;
modes
  a: initial mode while x <= 4.0 or n >= 9;
  b: mode while x < 1.0 or x > 2.0;
transitions
  a -[when x != 3.0 and x >= 0.5 then x := 0.0; n := min(n + 1, 9)]-> b;
  b -[when x < 1.0 or x > 2.0 then x := 0.0; hit := false]-> a;
  b -[when x > 0.25 and x != 0.75 then hit := true]-> a;
end Dial.I;

system Main
end Main;
system implementation Main.Imp
subcomponents
  dial: device Dial.I in modes (on) restart;
modes
  on: initial mode;
  off: mode;
transitions
  on -[rate 0.3]-> off;
  off -[rate 1.0]-> on;
end Main.Imp;

root Main.Imp;
|}

let test_verdicts_fallback () =
  check_verdict_stream ~name:"non-convex fallback"
    ~goal_src:"dial.n >= 6 or dial.hit and dial.n >= 3" ~horizon:40.0 ~seeds:2
    fallback_model

(* ------------------------------------------------------------------ *)
(* State-level lockstep: every compiled move against [Moves.apply]     *)

module State = Slimsim_sta.State
module Moves = Slimsim_sta.Moves
module Network = Slimsim_sta.Network

let same_state what (want : State.t) (got : State.t) =
  if
    want.State.locs <> got.State.locs
    || compare want.State.vals got.State.vals <> 0
    || not (float_equal want.State.time got.State.time)
  then Alcotest.failf "%s: compiled state differs from the interpreter's" what

(* "Every flow target equals its expression": stale after a delay that
   moves a flow's inputs, so it tells a refreshed target from a stale
   one. *)
let flows_fresh (net : Network.t) =
  Array.fold_left
    (fun acc (f : Network.flow) ->
      Expr.and_ acc (Expr.Binop (Expr.Eq, Expr.Var f.target, f.expr)))
    Expr.true_ net.Network.flows

(* Random walks that drive the compiled core through the same call
   sequences as [Path.generate_compiled] — a delay firing advances
   once, trials [enabled_after], then applies at delay 0; a Markov
   firing applies with its delay — and compare the whole state,
   including every flow target, with the interpreter after each call.
   A verdict stream cannot see a stale flow target that no goal or
   guard reads. *)
let lockstep ~name net ~walks ~steps =
  let c = Compiled.compile net in
  let s = Compiled.scratch c in
  let rng = Random.State.make [| 7 |] in
  let fresh = flows_fresh net in
  let fresh_c = Compiled.compile_bool fresh in
  let pick_delay w =
    let w =
      if I.is_bounded w then w
      else
        match I.inf w with
        | I.Fin (lo, _) -> I.clamp_above (lo +. 10.0) w
        | _ -> I.clamp_above 10.0 w
    in
    I.sample_uniform (fun x -> Random.State.float rng x) w
  in
  let delay_firings = ref 0 and markov_firings = ref 0 in
  for walk = 1 to walks do
    let where k what = Printf.sprintf "%s walk %d step %d: %s" name walk k what in
    Compiled.reset c s;
    same_state (where 0 "reset") (State.initial net) (Compiled.to_state c s);
    let rec go k =
      if k <= steps then begin
        let pre = Compiled.to_state c s in
        Compiled.set_rates c s;
        Compiled.invariant_window c s;
        let inv_win = Window.to_set (Compiled.inv_window s) 0 in
        if compare inv_win (Moves.invariant_window net pre) <> 0 then
          Alcotest.failf "%s" (where k "invariant windows differ");
        let n_t = Compiled.discrete c s in
        let timed = Compiled.timed_moves s in
        if compare timed (Moves.discrete net pre) <> 0 then
          Alcotest.failf "%s" (where k "discrete moves or windows differ");
        let n_m = Compiled.markovian c s in
        if n_t + n_m > 0 then begin
          let i = Random.State.int rng (n_t + n_m) in
          let window =
            if i < n_t then (List.nth timed i).Moves.window else inv_win
          in
          match pick_delay window with
          | None -> ()
          | Some d ->
            let advanced = State.advance net pre d in
            if
              Compiled.eval_bool_after c s ~cap:d fresh_c
              <> State.eval_bool advanced fresh
            then Alcotest.failf "%s" (where k "eval_bool_after differs");
            same_state (where k "after eval_bool_after") pre (Compiled.to_state c s);
            if i < n_t then begin
              let move = (List.nth timed i).Moves.move in
              Compiled.advance c s d;
              same_state (where k "advance") advanced (Compiled.to_state c s);
              let enabled = List.init (Compiled.enabled_after c s d) (Compiled.move s) in
              if compare enabled (Moves.enabled_after net pre d timed) <> 0 then
                Alcotest.failf "%s" (where k "enabled_after differs");
              same_state (where k "after trials") advanced (Compiled.to_state c s);
              (* Commit through the buffer when the move survived the
                 trials, else as a plain [Moves.move]. *)
              (match List.find_index (fun m -> compare m move = 0) enabled with
              | Some j -> Compiled.fire c s j
              | None -> Compiled.apply c s move);
              incr delay_firings;
              same_state (where k "delay firing")
                (Moves.apply net pre ~delay:d move)
                (Compiled.to_state c s)
            end
            else begin
              let j = i - n_t in
              let p = Compiled.markov_proc s j and tr = Compiled.markov_tr s j in
              let move = Moves.Local { proc = p; tr } in
              if
                compare (List.nth (Moves.markovian net pre) j)
                  (p, tr, (Compiled.markov_buf s).(j))
                <> 0
              then Alcotest.failf "%s" (where k "Markov race entries differ");
              Compiled.fire_markov c s ~delay:d j;
              incr markov_firings;
              same_state (where k "Markov firing")
                (Moves.apply net pre ~delay:d move)
                (Compiled.to_state c s)
            end;
            go (k + 1)
        end
      end
    in
    go 1
  done;
  (* A walk ends early only in a state with no move or an empty window;
     every model must get well past its initial state. *)
  if !delay_firings + !markov_firings < walks then
    Alcotest.failf "%s: the walks made only %d moves" name
      (!delay_firings + !markov_firings)

let test_lockstep () =
  List.iter
    (fun (name, src) -> lockstep ~name (load src) ~walks:20 ~steps:60)
    (("restart", restart_model) :: ("fallback", fallback_model) :: bundled_models ())

(* The flow cone rests on this order: [Network.make] sorts the flows so
   that each reads only variables that no flow targets or that earlier
   flows target. *)
let test_flow_order () =
  List.iter
    (fun (name, src) ->
      let net = load src in
      let written = Hashtbl.create 16 in
      Array.iter (fun (f : Network.flow) -> Hashtbl.replace written f.target ()) net.flows;
      let seen = Hashtbl.create 16 in
      Array.iteri
        (fun i (f : Network.flow) ->
          List.iter
            (fun v ->
              if Hashtbl.mem written v && not (Hashtbl.mem seen v) then
                Alcotest.failf "%s: flow %d reads %s before its flow ran" name i
                  (Network.var_name net v))
            (Expr.free_vars f.expr);
          Hashtbl.replace seen f.target ())
        net.flows)
    (("restart", restart_model) :: bundled_models ())

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

(* ------------------------------------------------------------------ *)
(* Allocation gate                                                     *)

(* Minor words per step of the compiled step loop, per bundled model:
   path ids 0-199 at seed 1 on this domain, the steps counted by the
   path-steps histogram of a first pass, the words by a second pass
   without instrumentation (per-path allocation, such as the RNG and
   the verdict, is spread over the path's steps).  The bounds are the
   values measured with OCaml 5.1.1 (in comments) plus about 60 %
   headroom for other compiler versions; a step that builds window
   lists, move lists or boxed race results again exceeds them many
   times over (the list-based step measured about 2 100 words on the
   recoverable launcher and 280 on the sensor-filter models). *)
let alloc_rows =
  [
    (* model, property, [(strategy, bound (* measured *))] in words/step *)
    ( "gps.slim",
      "P(<> [0, 300] gps in mode active and not gps.measurement)",
      [ (Strategy.Asap, 35. (* 20.8 *)); (Strategy.Progressive, 40. (* 25.0 *)) ] );
    ( "gps_nominal.slim",
      "P(<> [0, 300] measurement)",
      [ (Strategy.Asap, 35. (* 22.0 *)); (Strategy.Progressive, 40. (* 25.0 *)) ] );
    ( "heater.slim",
      "P(<> [0, 300] heater in mode broken)",
      [ (Strategy.Asap, 35. (* 21.0 *)); (Strategy.Progressive, 45. (* 26.0 *)) ] );
    ( "launcher_permanent.slim",
      "P(<> [0, 60] mission in mode flight and not thrusters.ctl)",
      [ (Strategy.Asap, 35. (* 20.7 *)); (Strategy.Progressive, 45. (* 26.1 *)) ] );
    ( "launcher_recoverable.slim",
      "P(<> [0, 60] mission in mode flight and not thrusters.ctl)",
      [ (Strategy.Asap, 35. (* 20.1 *)); (Strategy.Progressive, 45. (* 26.1 *)) ] );
    ( "mm1k.slim",
      "P(<> [0, 100] q = 4)",
      [ (Strategy.Asap, 25. (* 15.5 *)); (Strategy.Progressive, 25. (* 15.5 *)) ] );
    ( "mm1k_priced.slim",
      "P(<> [0, 100] served = 5)",
      [ (Strategy.Asap, 30. (* 18.9 *)); (Strategy.Progressive, 30. (* 18.9 *)) ] );
    ( "sensor_filter_2.slim",
      "P(<> [0, 1800] sensors.exhausted or filters.exhausted)",
      [ (Strategy.Asap, 35. (* 22.0 *)); (Strategy.Progressive, 40. (* 24.9 *)) ] );
    ( "sensor_filter_2_timed.slim",
      "P(<> [0, 1800] sensors.exhausted or filters.exhausted)",
      [ (Strategy.Asap, 35. (* 21.5 *)); (Strategy.Progressive, 40. (* 24.9 *)) ] );
    ( "sensor_filter_4.slim",
      "P(<> [0, 1800] sensors.exhausted or filters.exhausted)",
      [ (Strategy.Asap, 40. (* 22.8 *)); (Strategy.Progressive, 45. (* 26.8 *)) ] );
  ]

(* Minor words per step of [paths] compiled paths. *)
let words_per_step c q cfg strategy ~paths =
  let module Metrics = Slimsim_obs.Metrics in
  let s = Compiled.scratch c in
  let run ?obs () =
    for path = 0 to paths - 1 do
      ignore
        (Path.generate_compiled ?obs c s q cfg strategy (Rng.for_path ~seed:1L ~path))
    done
  in
  Metrics.set_enabled true;
  let steps =
    Fun.protect
      (fun () ->
        run ~obs:(Path.obs_cell ~worker:0) ();
        Metrics.histogram_sum
          (Metrics.histogram
             ~labels:[ ("worker", "0") ]
             "slimsim_path_steps" ~help:"Steps taken per simulated path"))
      ~finally:(fun () ->
        Metrics.set_enabled false;
        Metrics.reset ())
  in
  let w0 = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. w0) /. steps

let test_alloc_gate () =
  List.iter
    (fun (file, property, bounds) ->
      let net = load (List.assoc file (bundled_models ())) in
      let goal, hold, horizon =
        match
          Result.bind
            (Slimsim_props.Pattern.parse property)
            (Slimsim_props.Pattern.resolve net)
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s: %s" file e
      in
      let c = Compiled.compile net in
      let q = Path.compile_query ?hold c ~goal in
      List.iter
        (fun (strategy, bound) ->
          let per_step =
            words_per_step c q (Path.default_config ~horizon) strategy ~paths:200
          in
          Printf.printf "alloc gate: %s %s %.1f words/step\n" file
            (Strategy.to_string strategy) per_step;
          if per_step > bound then
            Alcotest.failf "%s (%s): %.1f minor words per step, bound %.0f" file
              (Strategy.to_string strategy) per_step bound)
        bounds)
    alloc_rows

let suite =
  [
    prop 2000 "compiled value = eval" gen_case prop_value;
    prop 2000 "compiled bool = eval_bool" gen_case prop_bool;
    prop 2000 "compiled float = as_float eval" gen_case prop_float;
    prop 2000 "compiled sat = Linear.sat_set" gen_case prop_sat;
    prop 2000 "window writer = Linear.sat_set on [0, inf)" gen_case prop_window;
    prop 2000 "convex window writer = Linear.sat_set on [0, inf)"
      (Gen.pair gen_convex gen_state) prop_convex_window;
    Alcotest.test_case "verdicts: gps nominal" `Quick test_verdicts_gps_nominal;
    Alcotest.test_case "verdicts: gps full" `Quick test_verdicts_gps_full;
    Alcotest.test_case "verdicts: sensor-filter" `Quick test_verdicts_sensor_filter;
    Alcotest.test_case "verdicts: sensor-filter timed" `Quick
      test_verdicts_sensor_filter_timed;
    Alcotest.test_case "verdicts: launcher" `Slow test_verdicts_launcher;
    Alcotest.test_case "verdicts: until on mm1k" `Quick test_verdicts_queue_until;
    Alcotest.test_case "verdicts: mm1k priced" `Quick test_verdicts_mm1k_priced;
    Alcotest.test_case "verdicts: restart" `Quick test_verdicts_restart;
    Alcotest.test_case "verdicts: non-convex fallback" `Quick test_verdicts_fallback;
    Alcotest.test_case "state lockstep with Moves.apply" `Quick test_lockstep;
    Alcotest.test_case "flows in reader-after-writer order" `Quick test_flow_order;
    Alcotest.test_case "engine equality" `Slow test_engine_equality;
    Alcotest.test_case "violated paths counted" `Quick test_violated_paths_counted;
    Alcotest.test_case "error policy" `Quick test_error_policy;
    Alcotest.test_case "scratch reuse is clean" `Quick test_scratch_reuse_is_clean;
    Alcotest.test_case "observability bit-identity" `Quick test_obs_bit_identity;
    Alcotest.test_case "allocation gate: words per step" `Quick test_alloc_gate;
  ]
