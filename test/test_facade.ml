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
    ]
