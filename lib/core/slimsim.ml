module Strategy = Slimsim_sim.Strategy
module Generator = Slimsim_stats.Generator
module Loader = Slimsim_slim.Loader
module Pattern = Slimsim_props.Pattern
module Campaign = Slimsim_sim.Campaign
module Path = Slimsim_sim.Path

let tool_version = "1.1.0"

type model = Loader.loaded

let load_string = Loader.load_string
let load_file = Loader.load_file
let network (m : model) = m.Loader.network
let ast (m : model) = m.Loader.ast
let tables (m : model) = m.Loader.tables

let lint (m : model) =
  Slimsim_analyze.Lint.run m.Loader.tables m.Loader.network

let ( let* ) = Result.bind

let enum_lookup (m : model) x =
  Option.map snd (Slimsim_slim.Sema.enum_literal m.Loader.tables x)

type estimate = {
  probability : float;
  ci_low : float;
  ci_high : float;
  paths : int;
  successes : int;
  deadlock_paths : int;
  violated_paths : int;
  errors : int;
  diverged_paths : int;
  dropped_paths : int;
  worker_restarts : int;
  interrupted : bool;
  wall_seconds : float;
  certificate : string option;
}

module Cost_run = Slimsim_sim.Cost_run

type cost_outcome =
  | Cost_probability of estimate
  | Cost_expected of Cost_run.result
  | Cost_distribution of Cost_run.result

(* --- the query plan: one parse, one resolution, one path config --- *)

type plan = {
  query : Pattern.query;
  goal : Slimsim_sta.Expr.t;
  hold : Slimsim_sta.Expr.t option;
  horizon : float;
  complement : bool;
  cost : (int * string) option;
  config : Path.config;
}

(* [`Property] is the classic grammar of [-p] and [~property] (its
   diagnostics included); [`Query] adds the priced-STA cost forms. *)
let parse grammar src =
  match grammar with
  | `Property -> Result.map (fun p -> Pattern.Prob p) (Pattern.parse src)
  | `Query -> Pattern.parse_query src

let plan ?max_steps ?max_sim_time ?max_wall_per_path ?(on_deadlock = `Falsify)
    (m : model) query =
  let enum = enum_lookup m and net = m.Loader.network in
  let* goal, hold, horizon, complement, cost =
    match query with
    | Pattern.Prob p ->
      let* goal, hold, horizon = Pattern.resolve ~enum net p in
      Ok (goal, hold, horizon, p.Pattern.complement, None)
    | Pattern.Cost_reach { cost_src; cost_bound; goal_src } ->
      (* Cost-bounded reachability is bounded until in cost space: hold
         [c <= C], no time bound (the watchdog budgets backstop paths
         whose cost observer stalls below the bound). *)
      let module Expr = Slimsim_sta.Expr in
      let* cv = Pattern.resolve_cost ~enum net cost_src in
      let* goal = Loader.parse_goal ~enum net goal_src in
      let hold = Expr.Binop (Expr.Le, Expr.var cv, Expr.real cost_bound) in
      Ok (goal, Some hold, infinity, false, None)
    | Pattern.Cost_expect { cost_src; prob } | Pattern.Cost_dist { cost_src; prob }
      ->
      let* cv = Pattern.resolve_cost ~enum net cost_src in
      let* goal, hold, horizon = Pattern.resolve ~enum net prob in
      Ok (goal, hold, horizon, false, Some (cv, Pattern.query_to_string query))
  in
  let base = Path.default_config ~horizon in
  let max_steps = Option.value max_steps ~default:base.Path.max_steps in
  let config =
    { base with Path.max_steps; max_sim_time; max_wall_per_path; on_deadlock }
  in
  Ok { query; goal; hold; horizon; complement; cost; config }

let plan_of ?max_steps ?max_sim_time ?max_wall_per_path ?on_deadlock grammar m
    src =
  let* query = parse grammar src in
  plan ?max_steps ?max_sim_time ?max_wall_per_path ?on_deadlock m query

let parse_property (m : model) src =
  let* p = plan_of `Property m src in
  Ok (p.goal, p.hold, p.horizon)

(* --- the qualitative pre-pass (§II-C) --- *)

module Prepass = Slimsim_analyze.Prepass

(* Map the skeleton outcome (computed on the resolved, possibly negated
   goal) to a certificate about the user's property. *)
let certificate_of ~complement (outcome : Prepass.outcome) =
  match Prepass.certificate_string outcome, complement with
  | Some "P0", false | Some "P1", true -> Some "P0"
  | Some "P0", true | Some "P1", false -> Some "P1"
  | _ -> None

let prepass ?max_nodes (m : model) ~property =
  let* p = plan_of `Property m property in
  Ok (Prepass.analyze ?max_nodes ?hold:p.hold m.Loader.network ~goal:p.goal,
      p.complement)

(* Property-directed lint: turn a conclusive pre-pass into an I002
   (statically certain) or I003 (statically vacuous) diagnostic.  A raw
   P1 outcome always carries a witness trace — for an invariance
   pattern that trace reaches the negated goal, i.e. it is a concrete
   violation of the user's invariant. *)
let lint_property ?max_nodes (m : model) ~property =
  let module D = Slimsim_analyze.Diagnostic in
  let module C = Slimsim_analyze.Codes in
  match prepass ?max_nodes m ~property with
  | Error e ->
    [
      D.make ~code:C.parse_error ~severity:D.Error ~pos:Slimsim_slim.Ast.no_pos
        (Printf.sprintf "property %S: %s" property e);
    ]
  | Ok (report, complement) -> (
    let trace =
      match report.Prepass.outcome with
      | Prepass.P1 { witness; _ } -> witness
      | _ -> []
    in
    match certificate_of ~complement report.Prepass.outcome with
    | Some "P1" ->
      [
        D.make ~code:C.statically_certain ~severity:D.Info
          ~pos:Slimsim_slim.Ast.no_pos ~trace
          (Printf.sprintf
             "property %S is statically certain (P = 1): every run surely \
              satisfies it; simulation would only confirm the answer"
             property);
      ]
    | Some "P0" ->
      [
        D.make ~code:C.statically_vacuous ~severity:D.Info
          ~pos:Slimsim_slim.Ast.no_pos ~trace
          (Printf.sprintf
             "property %S is statically vacuous (P = 0): no run can satisfy \
              it; sampling cannot produce a success"
             property);
      ]
    | _ -> [])

let prepass_metric result =
  if Slimsim_obs.Metrics.enabled () then
    Slimsim_obs.Metrics.incr
      (Slimsim_obs.Metrics.counter ~labels:[ ("result", result) ]
         "slimsim_prepass_total"
         ~help:"pre-pass runs by result (p0 / p1 / inconclusive)")

(* The qualitative shortcut shared by every front end and transport.
   The Scripted strategy hands control to a user callback (which may
   Abort or Advance arbitrarily), so certificates about the measure of
   all runs must not preempt it. *)
let certify ~prepass (m : model) p ~strategy =
  let scripted = match strategy with Strategy.Scripted _ -> true | _ -> false in
  if not (prepass && not scripted) then Ok None
  else begin
    let report = Prepass.analyze ?hold:p.hold m.Loader.network ~goal:p.goal in
    let answer =
      match report.Prepass.outcome with
      | Prepass.P0 _ -> Some 0.0
      | Prepass.P1 { depth; _ }
      (* All runs reach the goal within [depth] delay-free moves at
         elapsed time 0, so no step / sim-time budget with room for
         [depth] steps can reclassify them; a wall-clock watchdog
         could, so its presence disables the shortcut. *)
        when depth < p.config.Path.max_steps
             && p.config.Path.max_wall_per_path = None ->
        Some 1.0
      | _ -> None
    in
    let result =
      match report.Prepass.outcome with
      | Prepass.P0 _ -> "p0"
      | Prepass.P1 _ -> "p1"
      | Prepass.Inconclusive _ -> "inconclusive"
    in
    prepass_metric (if answer = None then "inconclusive" else result);
    Slimsim_obs.Log.emit ~event:"prepass"
      [
        ("result", Slimsim_obs.Json.String result);
        ("shortcut", Slimsim_obs.Json.Bool (answer <> None));
        ("wall_seconds", Slimsim_obs.Json.Float report.Prepass.wall_seconds);
      ];
    match (answer, p.query) with
    | None, _ -> Ok None
    (* A P=0 certificate means no path ever reaches the goal: the
       conditional expectation is undefined and sampling can only
       stall.  A P=1 certificate does NOT shortcut — the cost values
       still have to be sampled. *)
    | Some 0.0, (Pattern.Cost_expect { prob; _ } | Pattern.Cost_dist { prob; _ })
      ->
      Error
        (Printf.sprintf
           "expected cost undefined: the pre-pass certifies P = 0 for %s — \
            no path ever reaches the goal"
           (Pattern.to_string prob))
    | Some _, (Pattern.Cost_expect _ | Pattern.Cost_dist _) -> Ok None
    | Some p_raw, (Pattern.Prob _ | Pattern.Cost_reach _) ->
      (* Exact answer, no sampling: the certificate stands in for the
         whole campaign, complement-mapped like an estimated one. *)
      let pr = if p.complement then 1.0 -. p_raw else p_raw in
      Ok
        (Some
           {
             probability = pr;
             ci_low = pr;
             ci_high = pr;
             paths = 0;
             successes = 0;
             deadlock_paths = 0;
             violated_paths = 0;
             errors = 0;
             diverged_paths = 0;
             dropped_paths = 0;
             worker_restarts = 0;
             interrupted = false;
             wall_seconds = report.Prepass.wall_seconds;
             certificate = certificate_of ~complement:p.complement report.Prepass.outcome;
           })
  end

(* --- campaigns as values (the serve-mode workhorse) --- *)

type prepared = { campaign : Campaign.t; plan : plan }

let prepare ?workers ?seed ?(generator = Generator.Chernoff) ?engine ?on_error
    ?supervisor ?progress ?compiled (m : model) p ~strategy ~delta ~eps () =
  match
    Campaign.create ?workers ?seed ~config:p.config ?engine ?on_error ?hold:p.hold
      ?supervisor ?progress ~complement:p.complement ?compiled ?cost:p.cost
      m.Loader.network ~goal:p.goal
      ~horizon:p.horizon ~strategy
      ~generator:(Generator.create generator ~delta ~eps)
      ()
  with
  | Ok campaign -> Ok { campaign; plan = p }
  | Error e -> Error (Path.error_to_string e)

(* invariance patterns report the complement; "successes" keeps counting
   the paths that reached the negated goal *)
let estimate_of_result ~complement (r : Campaign.result) =
  let pr, lo, hi =
    if complement then
      (1.0 -. r.Campaign.probability, 1.0 -. r.Campaign.ci_high,
       1.0 -. r.Campaign.ci_low)
    else (r.Campaign.probability, r.Campaign.ci_low, r.Campaign.ci_high)
  in
  {
    probability = pr;
    ci_low = lo;
    ci_high = hi;
    paths = r.Campaign.paths;
    successes = r.Campaign.successes;
    deadlock_paths = r.Campaign.deadlock_paths;
    violated_paths = r.Campaign.violated_paths;
    errors = r.Campaign.errors;
    diverged_paths = r.Campaign.diverged_paths;
    dropped_paths = r.Campaign.dropped_paths;
    worker_restarts = r.Campaign.worker_restarts;
    interrupted = r.Campaign.stopped = Campaign.Interrupted;
    wall_seconds = r.Campaign.wall_seconds;
    certificate = None;
  }

(* The sampling path is "create a campaign, drive it to completion": the
   same resumable value a resident service steps incrementally, driven
   in one shot here. *)
let sample ?workers ?seed ?generator ?engine ?on_error ?supervisor ?progress
    (m : model) p ~strategy ~delta ~eps () =
  let* prep =
    prepare ?workers ?seed ?generator ?engine ?on_error ?supervisor ?progress m
      p ~strategy ~delta ~eps ()
  in
  let result = Campaign.drive prep.campaign in
  Option.iter Slimsim_obs.Progress.finish progress;
  match (result, p.query) with
  | Error e, _ -> Error (Path.error_to_string e)
  | Ok r, Pattern.Cost_expect _ ->
    Ok (Cost_expected (Cost_run.of_campaign ~delta prep.campaign r))
  | Ok r, Pattern.Cost_dist _ ->
    Ok (Cost_distribution (Cost_run.of_campaign ~delta prep.campaign r))
  | Ok r, (Pattern.Prob _ | Pattern.Cost_reach _) ->
    Ok (Cost_probability (estimate_of_result ~complement:p.complement r))

(* The one body behind [check] and [check_cost]: plan, certify, else
   sample. *)
let answer grammar ?workers ?seed ?generator ?on_deadlock ?engine ?on_error
    ?supervisor ?progress ?max_steps ?max_sim_time ?max_wall_per_path
    ?(prepass = true) m ~query ~strategy ~delta ~eps () =
  let* p =
    plan_of ?max_steps ?max_sim_time ?max_wall_per_path ?on_deadlock grammar m
      query
  in
  let* certified = certify ~prepass m p ~strategy in
  match certified with
  | Some e -> Ok (Cost_probability e)
  | None ->
    sample ?workers ?seed ?generator ?engine ?on_error ?supervisor ?progress m
      p ~strategy ~delta ~eps ()

let check_cost = answer `Query

let check ?workers ?seed ?generator ?on_deadlock ?engine ?on_error ?supervisor
    ?progress ?max_steps ?max_sim_time ?max_wall_per_path ?prepass m ~property
    ~strategy ~delta ~eps () =
  match
    answer `Property ?workers ?seed ?generator ?on_deadlock ?engine ?on_error
      ?supervisor ?progress ?max_steps ?max_sim_time ?max_wall_per_path
      ?prepass m ~query:property ~strategy ~delta ~eps ()
  with
  | Ok (Cost_probability e) -> Ok e
  | Ok (Cost_expected _ | Cost_distribution _) ->
    Error "the property grammar has no cost forms"
  | Error e -> Error e

type exact = {
  exact_probability : float;
  states : int;
  lumped_states : int;
  analysis_seconds : float;
}

let check_exact ?max_states ?lump (m : model) ~property =
  let* p = plan_of `Property m property in
  match
    Slimsim_ctmc.Analysis.check ?max_states ?hold:p.hold ?lump m.Loader.network
      ~goal:p.goal ~horizon:p.horizon
  with
  | Ok r ->
    Ok
      {
        exact_probability =
          (if p.complement then 1.0 -. r.Slimsim_ctmc.Analysis.probability
           else r.Slimsim_ctmc.Analysis.probability);
        states = r.Slimsim_ctmc.Analysis.stable_states;
        lumped_states = r.Slimsim_ctmc.Analysis.lumped_states;
        analysis_seconds = r.Slimsim_ctmc.Analysis.total_seconds;
      }
  | Error e -> Error e

let simulate_one ?(seed = 1L) ?(path = 0) ?(record = true) (m : model) ~property
    ~strategy =
  let* p = plan_of `Property m property in
  let rng = Slimsim_stats.Rng.for_path ~seed ~path in
  let verdict, steps =
    Path.generate ~record ?hold:p.hold m.Loader.network p.config strategy rng
      ~goal:p.goal
  in
  match verdict with
  | Ok v -> Ok (v, steps)
  | Error e -> Error (Path.error_to_string e)

let fault_tree ?max_order (m : model) ~goal ~top =
  let* goal_expr = Slimsim_slim.Loader.parse_goal m.Loader.network goal in
  Slimsim_safety.Cutsets.fault_tree ?max_order m.Loader.network ~goal:goal_expr ~top

let fmea (m : model) ~goal =
  let* goal_expr = Slimsim_slim.Loader.parse_goal m.Loader.network goal in
  Slimsim_safety.Fmea.analyze m.Loader.network ~goal:goal_expr

let fdir ?settle_time (m : model) ~observables =
  Slimsim_safety.Fdir.analyze ?settle_time m.Loader.network ~observables

let verify_invariant ?max_states (m : model) ~invariant =
  let* prop = Slimsim_slim.Loader.parse_goal m.Loader.network invariant in
  Slimsim_ctmc.Qualitative.check_invariant ?max_states m.Loader.network ~prop

let diagnosability ?max_faults (m : model) ~observables ~diagnosis =
  let* d = Slimsim_slim.Loader.parse_goal m.Loader.network diagnosis in
  Slimsim_safety.Diagnosability.check ?max_faults m.Loader.network ~observables
    ~diagnosis:d

let dot_process (m : model) name =
  match Slimsim_sta.Network.find_proc m.Loader.network name with
  | Some p -> Ok (Slimsim_sta.Dot.automaton m.Loader.network p)
  | None -> Error (Printf.sprintf "unknown process %s" name)

let dot_network (m : model) = Slimsim_sta.Dot.network m.Loader.network

let pp_estimate ppf e =
  Fmt.pf ppf "p = %.6f in [%.6f, %.6f] (%d/%d paths, %d dead/timelocked, %.2fs)"
    e.probability e.ci_low e.ci_high e.successes e.paths e.deadlock_paths
    e.wall_seconds;
  if e.violated_paths > 0 then Fmt.pf ppf " (%d hold-violated)" e.violated_paths;
  if e.errors > 0 then Fmt.pf ppf " (%d errored)" e.errors;
  if e.diverged_paths > 0 then
    Fmt.pf ppf " (%d diverged, %d dropped)" e.diverged_paths e.dropped_paths;
  if e.worker_restarts > 0 then
    Fmt.pf ppf " (%d worker restarts)" e.worker_restarts;
  if e.interrupted then Fmt.pf ppf " [interrupted]";
  match e.certificate with
  | Some c -> Fmt.pf ppf " [certificate %s: exact]" c
  | None -> ()

let pp_exact ppf e =
  Fmt.pf ppf "p = %.9f (%d states, %d after lumping, %.2fs)" e.exact_probability
    e.states e.lumped_states e.analysis_seconds

let pp_cost_outcome ppf = function
  | Cost_probability e -> pp_estimate ppf e
  | Cost_expected r | Cost_distribution r -> Cost_run.pp_result ppf r
