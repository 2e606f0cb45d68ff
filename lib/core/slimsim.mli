(** slimsim — statistical model checking of timed reachability for SLIM
    (AADL-dialect) models, after "A Statistical Approach for Timed
    Reachability in AADL Models" (DSN 2015).

    This facade wires the pipeline together:

    {v
    SLIM text --Loader--> network of stochastic timed automata
    property  --Pattern--> goal expression + time bound
    (model, property, strategy, generator) --Campaign--> estimate
    (model, property)                      --Ctmc-->   exact probability
    v}

    Quickstart:
    {[
      let model = Slimsim.load_string my_slim_source |> Result.get_ok in
      match
        Slimsim.check model ~property:"P(<> [0, 300] sys.failed)"
          ~strategy:Slimsim.Strategy.Asap ~delta:0.05 ~eps:0.01 ()
      with
      | Ok r -> Format.printf "%a@." Slimsim.pp_estimate r
      | Error e -> prerr_endline e
    ]} *)

module Strategy = Slimsim_sim.Strategy
module Generator = Slimsim_stats.Generator
module Campaign = Slimsim_sim.Campaign

val tool_version : string
(** The tool version stamped into the lint JSON envelope, printed by
    [slimsim version] and exchanged in the serve protocol handshake. *)

type model

val load_string : string -> (model, string) result
val load_file : string -> (model, string) result

val network : model -> Slimsim_sta.Network.t
val ast : model -> Slimsim_slim.Ast.model
val tables : model -> Slimsim_slim.Sema.tables

val lint : model -> Slimsim_analyze.Diagnostic.t list
(** Run every static check ({!Slimsim_analyze.Lint.run}) over a loaded
    model.  Sorted by source position. *)

val parse_property :
  model ->
  string ->
  (Slimsim_sta.Expr.t * Slimsim_sta.Expr.t option * float, string) result
(** Returns (goal, hold, horizon) of the property's {!plan}.  Accepts
    [P(<> [0,u] goal)], the bounded until [P(hold U [0,u] goal)], or
    [probability that goal within u]. *)

type estimate = {
  probability : float;
  ci_low : float;
  ci_high : float;
  paths : int;
  successes : int;
  deadlock_paths : int;
  violated_paths : int;
      (** bounded-until checks: paths on which the hold condition failed
          before the goal was reached *)
  errors : int;  (** errored paths fed as failures ([`Unsat] policy) *)
  diverged_paths : int;  (** paths cut off by a watchdog budget *)
  dropped_paths : int;
      (** diverged paths discarded and re-planned ([`Drop] policy) *)
  worker_restarts : int;  (** crashed workers brought back up *)
  interrupted : bool;
      (** the run was stopped early (SIGINT/SIGTERM or a supervisor stop
          request); the interval reflects the achieved confidence *)
  wall_seconds : float;
  certificate : string option;
      (** ["P0"] / ["P1"] when the qualitative pre-pass proved the
          answer exactly and the estimate was produced without sampling
          ([paths = 0], zero-width interval); [None] on the normal
          Monte Carlo path *)
}

(** {1 Query plans}

    Every checking front end — {!check}, {!check_cost}, the CLI's
    in-process and [--distribute] transports, the resident service and
    the distributed worker — answers a query the same way: parse it once
    ({!parse}), resolve it against the model into a {!plan}, run the
    qualitative pre-pass once ({!certify}), and only when that is
    inconclusive {!prepare} a campaign and drive it ({!sample}). *)

type plan = {
  query : Slimsim_props.Pattern.query;  (** the parsed form *)
  goal : Slimsim_sta.Expr.t;  (** negated for invariance patterns *)
  hold : Slimsim_sta.Expr.t option;
      (** the until's hold; [c <= C] for cost-bounded reachability *)
  horizon : float;  (** [infinity] for cost-bounded reachability *)
  complement : bool;  (** report [1 - p] (invariance patterns) *)
  cost : (int * string) option;
      (** [E]/[D]: the observer variable and canonical query string *)
  config : Slimsim_sim.Path.config;
}

val parse :
  [ `Property | `Query ] -> string -> (Slimsim_props.Pattern.query, string) result
(** Parse a query text.  [`Property] is the classic grammar of
    [~property] and [simulate -p] (reachability, until, invariance; its
    diagnostics are the classic parser's); [`Query] is
    {!Slimsim_props.Pattern.parse_query}, which adds the priced-STA cost
    forms. *)

val plan :
  ?max_steps:int ->
  ?max_sim_time:float ->
  ?max_wall_per_path:float ->
  ?on_deadlock:[ `Error | `Falsify ] ->
  model ->
  Slimsim_props.Pattern.query ->
  (plan, string) result
(** Resolve a parsed query against the model and build its path
    configuration: the watchdog budgets [max_steps] (default 1_000_000),
    [max_sim_time] and [max_wall_per_path], and the deadlock policy
    (default [`Falsify]).  Cost-bounded reachability [P(<> [c <= C] g)]
    becomes the bounded until with hold [c <= C] and no time bound. *)

val check :
  ?workers:int ->
  ?seed:int64 ->
  ?generator:Generator.kind ->
  ?on_deadlock:[ `Error | `Falsify ] ->
  ?engine:[ `Compiled | `Interpreted ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?supervisor:Slimsim_sim.Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?max_steps:int ->
  ?max_sim_time:float ->
  ?max_wall_per_path:float ->
  ?prepass:bool ->
  model ->
  property:string ->
  strategy:Strategy.t ->
  delta:float ->
  eps:float ->
  unit ->
  (estimate, string) result
(** Monte Carlo estimation (the paper's tool): {!parse} [property] with
    the [`Property] grammar, {!plan} it, {!certify} it and otherwise
    {!sample} it — the same body as {!check_cost}.  [generator] defaults
    to the Chernoff–Hoeffding bound; [engine] to the staged compiled
    core (bit-identical to the [`Interpreted] reference); [on_error] to
    aborting the run on the first path-level error.

    [supervisor] carries the campaign robustness policies (divergence
    handling, crash restarts, checkpoint/resume, graceful stop) — see
    {!Slimsim_sim.Supervisor}; the watchdog budgets [max_steps] (default
    1_000_000), [max_sim_time] and [max_wall_per_path] classify runaway
    paths as diverged, and the supervisor's policy decides how those
    count.

    [prepass] (default [true]) runs the qualitative pre-pass
    ({!certify}) before sampling.  When it certifies P=0 or P=1,
    [check] returns the exact answer without spawning any workers:
    [paths = 0], a zero-width interval and
    [certificate = Some "P0"/"P1"].  When it is inconclusive — or
    disabled with [?prepass:false] — the estimation runs exactly as it
    would have without the pre-pass: identical seeds, identical verdict
    stream, identical estimate. *)

(** {1 Campaigns as values}

    A resident service drives a {!prepare}d campaign incrementally
    ({!Campaign.step} / {!Campaign.park}) under its own scheduler. *)

val certify :
  prepass:bool ->
  model ->
  plan ->
  strategy:Strategy.t ->
  (estimate option, string) result
(** The qualitative pre-pass ({!Slimsim_analyze.Prepass}) as a shortcut.
    [Ok (Some e)]: a probability form proved P=0 or P=1, answered
    exactly ([paths = 0], zero-width interval, [certificate]).
    [Ok None]: sample — the pre-pass is off, inconclusive, or proved
    P=1 for an [E]/[D] form (whose cost values still need sampling).
    [Error]: P=0 on an [E]/[D] form (the expectation is undefined).  A
    P=1 certificate only counts when its witness depth fits under the
    plan's [max_steps] and no [max_wall_per_path] watchdog is set (a
    wall-clock budget could reclassify real paths); the [Scripted]
    strategy disables the pre-pass, since a script may abort runs. *)

type prepared = {
  campaign : Campaign.t;
  plan : plan;
      (** the query it answers; map the final result through
          {!estimate_of_result} with [plan.complement] *)
}

val prepare :
  ?workers:int ->
  ?seed:int64 ->
  ?generator:Generator.kind ->
  ?engine:[ `Compiled | `Interpreted ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?supervisor:Slimsim_sim.Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?compiled:Slimsim_sta.Compiled.t ->
  model ->
  plan ->
  strategy:Strategy.t ->
  delta:float ->
  eps:float ->
  unit ->
  (prepared, string) result
(** Create the (unstarted) campaign for a plan, with the cost
    accumulator attached for [E]/[D] forms.  Parameters are those of
    {!check}, minus the pre-pass (a caller decides itself whether to
    {!certify}) and the path configuration (already in the plan), plus
    [compiled]: an already-staged network (from
    [Slimsim_sta.Compiled.compile (network m)]) so a resident process
    can amortize staging across many campaigns over the same model. *)

val estimate_of_result : complement:bool -> Campaign.result -> estimate
(** Map a finished campaign's raw result — in-process or distributed —
    to the user-facing estimate, applying the pattern's complement
    ({!plan}'s [complement]).  [certificate] is [None]. *)

val prepass :
  ?max_nodes:int ->
  model ->
  property:string ->
  (Slimsim_analyze.Prepass.report * bool, string) result
(** Run only the qualitative pre-pass on a property.  Returns the raw
    report together with the pattern's complement flag: the report's
    outcome speaks about the {e resolved} goal (invariance patterns are
    checked via their negation), so a [P0] outcome with
    [complement = true] certifies P=1 for the user's property, and vice
    versa.  Used by [slimsim lint --property]. *)

val certificate_of :
  complement:bool -> Slimsim_analyze.Prepass.outcome -> string option
(** The user-facing certificate of a pre-pass outcome: [Some "P0"] /
    [Some "P1"] with the complement mapping of {!prepass} applied,
    [None] when inconclusive. *)

val lint_property :
  ?max_nodes:int ->
  model ->
  property:string ->
  Slimsim_analyze.Diagnostic.t list
(** Property-directed lint: run the pre-pass and report a conclusive
    outcome as a diagnostic — [I002] (statically certain, P=1) or
    [I003] (statically vacuous, P=0), carrying the delay-free witness
    trace when one exists (for an invariance pattern the P=0 witness is
    a concrete invariant violation).  Inconclusive outcomes produce no
    diagnostic; an unparseable property is reported as an error. *)

(** {1 Priced-STA cost queries}

    UPPAAL-SMC-style queries over a cost observer — any clock or
    continuous variable of the model (constant derivatives per mode, so
    linear advance makes its value at a crossing exact):

    - [P(<> [c <= C] goal)] — cost-bounded reachability, checked as a
      bounded until with hold [c <= C] and no time bound
    - [E[c ; <> [0,u] goal]] — the expected value of [c] at the first
      goal crossing, over paths that reach the goal in time
    - [D[c ; <> [0,u] goal]] — the empirical distribution of the same
      quantity (mean, CI, quantiles, histogram)

    Plain probability queries are accepted too and behave exactly like
    {!check}. *)

type cost_outcome =
  | Cost_probability of estimate
      (** a [P(...)] form — plain or cost-bounded reachability *)
  | Cost_expected of Slimsim_sim.Cost_run.result  (** an [E[...]] query *)
  | Cost_distribution of Slimsim_sim.Cost_run.result
      (** a [D[...]] query; render with
          {!Slimsim_sim.Cost_run.pp_distribution} *)

val sample :
  ?workers:int ->
  ?seed:int64 ->
  ?generator:Generator.kind ->
  ?engine:[ `Compiled | `Interpreted ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?supervisor:Slimsim_sim.Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  model ->
  plan ->
  strategy:Strategy.t ->
  delta:float ->
  eps:float ->
  unit ->
  (cost_outcome, string) result
(** {!prepare} a campaign for the plan, drive it to completion in this
    process, finish [progress], and map the result by query form:
    {!estimate_of_result} for probability forms, the cost result (its
    interval at the generator's [delta]) for [E]/[D].  No pre-pass. *)

val check_cost :
  ?workers:int ->
  ?seed:int64 ->
  ?generator:Generator.kind ->
  ?on_deadlock:[ `Error | `Falsify ] ->
  ?engine:[ `Compiled | `Interpreted ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?supervisor:Slimsim_sim.Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?max_steps:int ->
  ?max_sim_time:float ->
  ?max_wall_per_path:float ->
  ?prepass:bool ->
  model ->
  query:string ->
  strategy:Strategy.t ->
  delta:float ->
  eps:float ->
  unit ->
  (cost_outcome, string) result
(** Check any query form: {!parse} [query] with the [`Query] grammar,
    then the body of {!check} — {!plan}, one {!certify}, else {!sample}.
    Parameters are those of {!check}.  A probability form gives exactly
    {!check}'s answer; an [E]/[D] form runs the same campaign with its
    cost accumulator attached, under [workers] like any other, and a
    pre-pass P=0 certificate on it is an error. *)

val pp_cost_outcome : Format.formatter -> cost_outcome -> unit
(** {!pp_estimate} for probability forms, [Cost_run.pp_result] for
    cost forms ([D] callers typically also print
    {!Slimsim_sim.Cost_run.pp_distribution}). *)

type exact = {
  exact_probability : float;
  states : int;
  lumped_states : int;
  analysis_seconds : float;
}

val check_exact :
  ?max_states:int ->
  ?lump:bool ->
  model ->
  property:string ->
  (exact, string) result
(** The baseline CTMC pipeline (§IV); untimed models only. *)

val simulate_one :
  ?seed:int64 ->
  ?path:int ->
  ?record:bool ->
  model ->
  property:string ->
  strategy:Strategy.t ->
  ( Slimsim_sim.Path.verdict * Slimsim_sim.Path.step_record list,
    string )
  result
(** Generate a single path (e.g. to inspect a trace or to drive the
    scripted Input strategy).  [path] (default 0) is the path id: the
    path draws from the same RNG stream as path [path] of a campaign
    with the same [seed], so it replays that path's verdict. *)

val fault_tree :
  ?max_order:int ->
  model ->
  goal:string ->
  top:string ->
  (Slimsim_safety.Cutsets.fault_tree, string) result
(** Safety analysis (§II-C): the minimal cut sets of the goal expression
    (a Boolean over the model, not a timed property), as a fault tree. *)

val fmea :
  model -> goal:string -> (Slimsim_safety.Fmea.row list, string) result
(** FMEA table: one row per failure mode (basic event). *)

val fdir :
  ?settle_time:float ->
  model ->
  observables:string list ->
  (Slimsim_safety.Fdir.verdict list, string) result
(** FDIR analysis (§II-C): per failure mode, whether it can be detected,
    isolated and recovered from, given the observable variables. *)

val verify_invariant :
  ?max_states:int ->
  model ->
  invariant:string ->
  (Slimsim_ctmc.Qualitative.outcome, string) result
(** Qualitative correctness analysis (§II-C): exhaustive invariant
    checking on the untimed abstraction, with a counterexample trace on
    violation. *)

val diagnosability :
  ?max_faults:int ->
  model ->
  observables:string list ->
  diagnosis:string ->
  (Slimsim_safety.Diagnosability.report, string) result
(** Diagnosability (§II-C): report observation classes in which the
    diagnosis expression is ambiguous. *)

val dot_process : model -> string -> (string, string) result
(** Graphviz rendering of one process (cf. the paper's Figure 2). *)

val dot_network : model -> string
(** Graphviz overview of the whole network. *)

val pp_estimate : Format.formatter -> estimate -> unit
val pp_exact : Format.formatter -> exact -> unit
