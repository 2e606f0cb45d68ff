(* The query facade: every query form answered through [Slimsim.check] /
   [Slimsim.check_cost] at a fixed seed, pinned to the exact numbers the
   campaign kernel produces, plus the identities that tie the entry
   points together — [check_cost] on a probability form is [check], and
   preparing, driving and mapping a campaign by hand is [check] without
   the pre-pass. *)

module Generator = Slimsim.Generator
module Strategy = Slimsim.Strategy
module Campaign = Slimsim.Campaign
module Cost_run = Slimsim_sim.Cost_run

let model_cache = Hashtbl.create 4

let model file =
  match Hashtbl.find_opt model_cache file with
  | Some m -> m
  | None -> (
    let dir =
      Filename.concat (Filename.dirname Sys.executable_name) "../examples/models"
    in
    match Slimsim.load_file (Filename.concat dir file) with
    | Ok m ->
      Hashtbl.replace model_cache file m;
      m
    | Error e -> Alcotest.failf "%s: %s" file e)

let seed = 1L
let delta = 0.1
let eps = 0.1

type prob = {
  p : float;
  lo : float;
  hi : float;
  paths : int;
  successes : int;
  cert : string option;
}

type cost = { mean : float; c_lo : float; c_hi : float; samples : int; reach_paths : int }

type expect = Prob of prob | Expected of cost | Distribution of cost

type row = {
  name : string;
  file : string;
  query : string;
  strategy : Strategy.t;
  expect : expect;
}

let rows =
  [
    {
      name = "plain P";
      file = "gps_nominal.slim";
      query = "P(<> [0, 50] measurement)";
      strategy = Strategy.Progressive;
      expect =
        Prob
          {
            p = 0.34945788156797331;
            lo = 0.31411296916168296;
            hi = 0.38480279397426365;
            paths = 1199;
            successes = 419;
            cert = None;
          };
    };
    {
      name = "invariance P";
      file = "mm1k_priced.slim";
      query = "P([] [0, 10] q < 4)";
      strategy = Strategy.Asap;
      expect =
        Prob
          {
            p = 0.56046705587989987;
            lo = 0.52512214347360953;
            hi = 0.59581196828619021;
            paths = 1199;
            successes = 527;
            cert = None;
          };
    };
    {
      name = "cost-bounded P";
      file = "mm1k_priced.slim";
      query = "P(<> [w <= 20] served = 5)";
      strategy = Strategy.Asap;
      expect =
        Prob
          {
            p = 0.88740617180984149;
            lo = 0.85206125940355115;
            hi = 0.92275108421613183;
            paths = 1199;
            successes = 1064;
            cert = None;
          };
    };
    {
      name = "E";
      file = "mm1k_priced.slim";
      query = "E[w ; <> [0, 100] served = 5]";
      strategy = Strategy.Asap;
      expect =
        Expected
          {
            mean = 10.132013568284655;
            c_lo = 9.7701181219237494;
            c_hi = 10.493909014645562;
            samples = 1199;
            reach_paths = 1199;
          };
    };
    {
      name = "D";
      file = "gps_nominal.slim";
      query = "D[x ; <> [0, 300] measurement]";
      strategy = Strategy.Progressive;
      expect =
        Distribution
          {
            mean = 64.984816194188184;
            c_lo = 63.481680972896534;
            c_hi = 66.487951415479841;
            samples = 1199;
            reach_paths = 1199;
          };
    };
    {
      name = "P0 certificate";
      file = "mm1k.slim";
      query = "P(<> [0, 100] q < 0)";
      strategy = Strategy.Asap;
      expect =
        Prob { p = 0.0; lo = 0.0; hi = 0.0; paths = 0; successes = 0; cert = Some "P0" };
    };
    {
      name = "P1 certificate (invariance)";
      file = "gps_nominal.slim";
      query = "P([] [0, 300] x >= 0)";
      strategy = Strategy.Asap;
      expect =
        Prob { p = 1.0; lo = 1.0; hi = 1.0; paths = 0; successes = 0; cert = Some "P1" };
    };
  ]

let check_cost ?prepass r =
  Slimsim.check_cost ~seed ?prepass (model r.file) ~query:r.query
    ~strategy:r.strategy ~delta ~eps ()

let check ?prepass r =
  Slimsim.check ~seed ?prepass (model r.file) ~property:r.query
    ~strategy:r.strategy ~delta ~eps ()

let exact name = Alcotest.(check (float 0.0)) name

let pin_estimate name (e : Slimsim.estimate) x =
  exact (name ^ ": probability") x.p e.Slimsim.probability;
  exact (name ^ ": ci_low") x.lo e.Slimsim.ci_low;
  exact (name ^ ": ci_high") x.hi e.Slimsim.ci_high;
  Alcotest.(check int) (name ^ ": paths") x.paths e.Slimsim.paths;
  Alcotest.(check int) (name ^ ": successes") x.successes e.Slimsim.successes;
  Alcotest.(check (option string)) (name ^ ": certificate") x.cert
    e.Slimsim.certificate

let pin_cost name (r : Cost_run.result) x =
  exact (name ^ ": cost_mean") x.mean r.Cost_run.cost_mean;
  exact (name ^ ": cost_ci_low") x.c_lo r.Cost_run.cost_ci_low;
  exact (name ^ ": cost_ci_high") x.c_hi r.Cost_run.cost_ci_high;
  Alcotest.(check int) (name ^ ": cost_samples") x.samples r.Cost_run.cost_samples;
  Alcotest.(check int) (name ^ ": paths") x.reach_paths
    r.Cost_run.reach.Campaign.paths

let pinned r () =
  match (check_cost r, r.expect) with
  | Error e, _ -> Alcotest.failf "%s: %s" r.name e
  | Ok (Slimsim.Cost_probability e), Prob x -> pin_estimate r.name e x
  | Ok (Slimsim.Cost_expected c), Expected x
  | Ok (Slimsim.Cost_distribution c), Distribution x ->
    pin_cost r.name c x
  | Ok _, _ -> Alcotest.failf "%s: answered in another form" r.name

(* Every field but the wall clock. *)
let same_estimate name (a : Slimsim.estimate) (b : Slimsim.estimate) =
  Alcotest.(check bool)
    name true
    ({ a with Slimsim.wall_seconds = 0.0 } = { b with Slimsim.wall_seconds = 0.0 })

(* The classic probability rows (not the cost-bounded one, which only
   the query grammar accepts). *)
let classic_rows =
  List.filter
    (fun r ->
      match (r.expect, Slimsim_props.Pattern.parse r.query) with
      | Prob _, Ok _ -> true
      | _ -> false)
    rows

let test_check_cost_is_check () =
  List.iter
    (fun r ->
      match (check r, check_cost r) with
      | Ok a, Ok (Slimsim.Cost_probability b) -> same_estimate r.name a b
      | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" r.name e
      | Ok _, Ok _ -> Alcotest.failf "%s: check_cost gave a cost answer" r.name)
    classic_rows

let test_prepare_drive_map () =
  List.iter
    (fun r ->
      let m = model r.file in
      let by_hand =
        match
          Result.bind (Slimsim.parse `Property r.query) (fun q ->
              Result.bind (Slimsim.plan m q) (fun plan ->
                  Slimsim.prepare ~seed m plan ~strategy:r.strategy ~delta ~eps
                    ()))
        with
        | Error e -> Alcotest.failf "%s: prepare: %s" r.name e
        | Ok p -> (
          match Campaign.drive p.Slimsim.campaign with
          | Ok res ->
            Slimsim.estimate_of_result
              ~complement:p.Slimsim.plan.Slimsim.complement res
          | Error e ->
            Alcotest.failf "%s: drive: %s" r.name
              (Slimsim_sim.Path.error_to_string e))
      in
      match check ~prepass:false r with
      | Ok e -> same_estimate r.name e by_hand
      | Error e -> Alcotest.failf "%s: %s" r.name e)
    classic_rows

let test_expected_cost_on_p0 () =
  match
    Slimsim.check_cost ~seed (model "mm1k_priced.slim")
      ~query:"E[w ; <> [0, 100] q < 0]" ~strategy:Strategy.Asap ~delta ~eps ()
  with
  | Error e ->
    Alcotest.(check string)
      "message"
      "expected cost undefined: the pre-pass certifies P = 0 for P(<> [0, \
       100] q < 0) — no path ever reaches the goal"
      e
  | Ok _ -> Alcotest.fail "E[...] on a P0-certified goal answered"

(* Invariance patterns run the campaign on the negated goal; every
   running figure must report the complement, like the final answer:
   the CLI's --progress heartbeat and serve's [status] of a running job
   (which reads [Campaign.snapshot]). *)
let invariance_query = "P([] [0, 10] q < 4)"

let prepare_invariance ?progress ?(complement = true) () =
  let m = model "mm1k_priced.slim" in
  match
    Result.bind (Slimsim.parse `Property invariance_query) (fun q ->
        Result.bind (Slimsim.plan m q) (fun plan ->
            if not plan.Slimsim.complement then
              Alcotest.fail "an invariance pattern plans a complement";
            Slimsim.prepare ~seed ?progress m { plan with Slimsim.complement }
              ~strategy:Strategy.Asap ~delta:0.01 ~eps:0.01 ()))
  with
  | Ok p -> p
  | Error e -> Alcotest.failf "prepare: %s" e

let test_invariance_heartbeat () =
  let file = Filename.temp_file "slimsim_progress" ".txt" in
  let out = open_out file in
  let progress = Slimsim_obs.Progress.create ~interval:1e-9 ~out () in
  let p = prepare_invariance ~progress () in
  let final =
    match Campaign.drive p.Slimsim.campaign with
    | Ok r -> Slimsim.estimate_of_result ~complement:true r
    | Error e -> Alcotest.failf "drive: %s" (Slimsim_sim.Path.error_to_string e)
  in
  close_out out;
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (* The last heartbeat follows the last sample: its estimate is the
     final answer, at the heartbeat's six digits. *)
  let last =
    String.split_on_char '\r' text
    |> List.filter_map (fun l ->
           match String.index_opt l '~' with
           | Some i ->
             Scanf.sscanf_opt (String.sub l (i + 1) (String.length l - i - 1)) " %f" Fun.id
           | None -> None)
    |> List.rev
  in
  match last with
  | [] -> Alcotest.fail "no heartbeat printed"
  | p :: _ ->
    Alcotest.(check (float 1e-6))
      "heartbeat p is the answer's p" final.Slimsim.probability p;
    if Float.abs (p -. (1.0 -. final.Slimsim.probability)) < 0.05 then
      Alcotest.fail "the heartbeat shows the negated goal's estimate"

let test_invariance_status () =
  (* Two campaigns on the same seed, one reporting the complement; a
     serve slice is a [Campaign.step] with a quota. *)
  let step_snapshot complement =
    let p = prepare_invariance ~complement () in
    (match Campaign.step ~quota:200 p.Slimsim.campaign with
    | Campaign.Running -> ()
    | _ -> Alcotest.fail "the campaign finished within one slice");
    Campaign.snapshot p.Slimsim.campaign
  in
  let m, lo, hi, n = step_snapshot true in
  let m', lo', hi', n' = step_snapshot false in
  Alcotest.(check int) "same slice" n' n;
  Alcotest.(check (float 0.0)) "mean" (1.0 -. m') m;
  Alcotest.(check (float 0.0)) "ci_low" (1.0 -. hi') lo;
  Alcotest.(check (float 0.0)) "ci_high" (1.0 -. lo') hi

(* [slimsim trace --path N] replays path N of a campaign: its verdict is
   the one the campaign's own runner draws for path id N. *)
let test_trace_path_replay () =
  let here = Filename.dirname Sys.executable_name in
  let bin = Filename.concat here "../bin/slimsim_cli.exe" in
  let out = Filename.temp_file "slimsim_trace" ".txt" in
  let trace_verdict file property strategy n =
    let code =
      Sys.command
        (Filename.quote_command bin ~stdout:out ~stderr:Filename.null
           [
             "trace"; Filename.concat here ("../examples/models/" ^ file); "-p";
             property; "-s"; Strategy.to_string strategy; "--seed";
             Int64.to_string seed; "--path"; string_of_int n;
           ])
    in
    if code <> 0 then Alcotest.failf "trace --path %d exited %d" n code;
    let lines =
      String.split_on_char '\n' (In_channel.with_open_bin out In_channel.input_all)
    in
    match List.find_opt (String.starts_with ~prefix:"verdict: ") lines with
    | Some l -> String.sub l 9 (String.length l - 9)
    | None -> Alcotest.failf "trace --path %d printed no verdict" n
  in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  List.iter
    (fun (file, property, strategy) ->
      let m = model file in
      let plan =
        match Result.bind (Slimsim.parse `Property property) (Slimsim.plan m) with
        | Ok p -> p
        | Error e -> Alcotest.failf "%s: %s" file e
      in
      let run =
        Campaign.make_runner ~engine:`Compiled ~seed ?hold:plan.Slimsim.hold
          plan.Slimsim.config (Slimsim.network m) ~goal:plan.Slimsim.goal ~strategy
          ~worker:0 ()
      in
      List.iter
        (fun n ->
          let expected =
            match run n with
            | Ok v -> Slimsim_sim.Path.verdict_to_string v
            | Error e ->
              Alcotest.failf "path %d: %s" n (Slimsim_sim.Path.error_to_string e)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s path %d" file n)
            expected
            (trace_verdict file property strategy n))
        [ 0; 3; 17; 42 ])
    [
      ( "gps.slim",
        "P(<> [0, 300] gps in mode active and not gps.measurement)",
        Strategy.Progressive );
      ( "launcher_recoverable.slim",
        "P(<> [0, 60] mission in mode flight and not thrusters.ctl)",
        Strategy.Progressive );
    ]

let suite =
  List.map
    (fun r -> Alcotest.test_case ("pinned: " ^ r.name) `Quick (pinned r))
    rows
  @ [
      Alcotest.test_case "check_cost on a P form is check" `Quick
        test_check_cost_is_check;
      Alcotest.test_case "prepare + drive + map is check without pre-pass"
        `Quick test_prepare_drive_map;
      Alcotest.test_case "E[...] on a P0 goal is an error" `Quick
        test_expected_cost_on_p0;
      Alcotest.test_case "invariance heartbeat reports 1 - p" `Quick
        test_invariance_heartbeat;
      Alcotest.test_case "invariance status reports 1 - p" `Quick
        test_invariance_status;
      Alcotest.test_case "trace --path replays a campaign path" `Quick
        test_trace_path_replay;
    ]
