(** Staged compilation of an STA network into a closure-based run-time
    representation (the UPPAAL-style "compiled network").  [compile]
    runs once per network; simulation then operates on a mutable
    per-worker {!cstate} scratch.

    Semantic contract: every operation mirrors the reference
    interpreter ([Expr.eval], [Linear.sat_set], [State], [Moves])
    float-op for float-op, so a compiled simulation produces a
    bit-identical verdict stream for a fixed seed.  The cross-check
    tests in [test/test_compiled.ml] enforce this, down to the whole
    state after every move.

    A discrete step costs what it changes.  [compile] indexes, for each
    variable and each process, the data flows that read it; {!apply}
    re-evaluates only the flows its updates, location switches,
    restarts and any delay since the last step can have changed (the
    flow cone), in the interpreter's topological order.

    Ownership rules for {!cstate} (see [docs/PERFORMANCE.md]):
    - a scratch state belongs to exactly one worker; never share one
      across domains;
    - [rates] is refreshed by {!set_rates} and read by {!advance},
      {!discrete} (through guards) and the symbolic closures; discrete
      application never writes it;
    - trial execution ({!enabled_after}, {!eval_bool_after}) journals
      each variable and location it writes and undoes the journal
      before returning, even on exceptions. *)

module I := Slimsim_intervals.Interval_set

type cstate
(** Mutable per-worker simulation state: location vector, value store
    with an unboxed float cache, current rate vector and model time. *)

type cvalue = cstate -> Value.t
type cbool = cstate -> bool
type cfloat = cstate -> float
type csat = cstate -> I.t
(** A compiled guard: the delay sat-set [{d | guard holds after d}],
    evaluated against the current rate vector (cf. [Linear.sat_set]). *)

type t
(** A compiled network: per-(process, location) tables of invariants,
    derivatives and outgoing transitions indexed by event label, plus
    compiled flows and activation conditions. *)

val compile : Network.t -> t
val network : t -> Network.t

(** {1 Expression compilation}

    These are exposed for the property tests; [compile] uses them
    internally.  Each mirrors the corresponding interpreter entry
    point: [compile_value] ≡ [Expr.eval], [compile_bool] its Boolean
    specialization, [compile_float] its numeric specialization
    (integer division/modulo semantics preserved), [compile_sat] ≡
    [Linear.sat_set]. *)

val compile_value : Expr.t -> cvalue
val compile_bool : Expr.t -> cbool
val compile_float : Expr.t -> cfloat
val compile_sat : Expr.t -> csat

(** {1 Scratch states} *)

val scratch : t -> cstate
(** A fresh scratch state for one worker, in the initial configuration
    modulo {!reset} (call {!reset} before the first path). *)

val reset : t -> cstate -> unit
(** Reinitialize to the network's initial state ([State.initial]):
    initial locations, initial values, flows applied, time 0. *)

val cstate_of :
  locs:int array -> vals:Value.t array -> rates:float array -> time:float -> cstate
(** Build a standalone scratch from explicit contents — for tests that
    evaluate compiled expressions against synthetic states. *)

val time : cstate -> float

val var_float : cstate -> int -> float
(** Current numeric value of a variable, reading the unboxed cache when
    it is authoritative (≡ [Value.as_float (State.env _ v)]). *)

val rate : cstate -> int -> float
(** Current derivative of a variable, as last refreshed by
    {!set_rates}. *)

val to_state : t -> cstate -> State.t

(** {1 Per-step operations} — each mirrors its [State]/[Moves]
    counterpart exactly.  The scratch arrays are reused, but the step
    still allocates: the move lists and delay windows of {!discrete},
    boxed [Value.t] results of updates and flows, and the trial result
    of {!enabled_after}.  perfbench's traced run measures about 2 100
    minor words per step on [fig5-launcher] and about 280 on
    [table1-sensor-filter] ([sim.words_per_step]). *)

val set_rates : t -> cstate -> unit
(** Refresh the rate vector for the current discrete state
    ([State.rate_array]). *)

val advance : t -> cstate -> float -> unit
(** Delay by [d] under the current rate vector ([State.advance]);
    requires {!set_rates} to have run since the last discrete change. *)

val invariant_window : t -> cstate -> I.t
(** [Moves.invariant_window]. *)

val discrete : t -> cstate -> I.t -> Moves.timed list
(** [Moves.discrete]: all enabled τ/sync moves with their delay
    windows, in the interpreter's order. *)

val markovian : t -> cstate -> (int * int * float) list
(** [Moves.markovian]: [(proc, transition, rate)] triples. *)

val markov_buf : cstate -> float array
(** Worker-local scratch for the exponential race over the markovian
    rates; sized to the network's largest possible race. *)

val apply : t -> cstate -> ?delay:float -> Moves.move -> unit
(** [Moves.apply], in place: {!advance} by [delay] (default 0), then
    the discrete step.  The rate vector must describe the pre-[apply]
    state (it is read by the advance but never written).  Only the
    flows whose inputs the step changed are re-evaluated; the second
    flow pass runs only when a process restarted. *)

val invariants_hold : t -> cstate -> bool

val enabled_after : t -> cstate -> float -> Moves.timed list -> Moves.move list
(** [enabled_after c s d moves] is [Moves.enabled_after] on the state
    [d] time units before [s]: the caller advances [s] by [d] first,
    and each candidate whose window contains [d] is trial-applied at
    delay 0 and kept when the landing state satisfies the invariants.
    [s] is unchanged on return. *)

val eval_bool_after : t -> cstate -> cap:float -> cbool -> bool
(** Evaluate a predicate in the state reached by delaying [cap],
    without committing the delay (a journaled trial). *)

(** {1 Formulas} *)

type formula = {
  f_expr : Expr.t;
  f_trivial : bool;  (** the formula is literally [true] *)
  f_bool : cbool;
  f_sat : csat;
}

val compile_formula : t -> Expr.t -> formula
