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
      before returning, even on exceptions.

    Delay windows live in the scratch, as {!Slimsim_intervals.Window}
    slots: {!invariant_window} writes slot 0 of {!inv_window},
    {!discrete} writes move [i]'s window to slot [i] of
    {!move_windows}, and {!formula_first_point} writes disjunct [k]'s
    window to slot [k] of {!goal_window}.  A slot is overwritten by the
    next call that writes it.

    Convex or fallback: [compile] stages a window writer for every
    guard, invariant and goal/hold formula whose delay sat-set is
    provably one interval or empty, judged once from its syntax — a
    conjunction of literals: Boolean constants, variables and location
    atoms (possibly negated), comparisons other than [<>] (negated only
    when they are orders) between variables and numeric constants, and
    any comparison that reads no clock, continuous or derivative
    variable (its sat-set is everything or nothing).  A writer
    intersects the sat-set into a slot's bounds in place, evaluating
    every literal left to right with [Linear.sat_set]'s reads and float
    operations, so the same exception is raised first.  A goal that is
    a disjunction of such conjunctions gets one writer per disjunct.
    Any other formula keeps its [csat] closure, whose [Interval_set.t]
    result is stored in the slot as is; so is a window whose bounds
    would include a NaN.  Either way the slot holds the set [Moves]
    computes.

    The move buffer: {!discrete} fills moves [0 .. n - 1] (kind,
    process or event, transition, window slot; a synchronization's
    (process, transition) parts in a flat parts buffer) in [Moves]'
    order.  {!enabled_after} filters the buffer in place: the moves it
    keeps are compacted to the front in their order, and their window
    slots become meaningless.  {!fire} commits a buffered move by
    index; {!move} builds the [Moves.move] of one, for tests and
    traces. *)

module I := Slimsim_intervals.Interval_set
module W := Slimsim_intervals.Window

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

val compile_window : ?untimed:(int -> bool) -> Expr.t -> (cstate -> I.t) option
(** The window writer of a formula, when it is staged (see the header),
    run on a fresh slot: [Some f] with [f s] ≡
    [I.inter (Linear.sat_set e) (I.at_least 0.0)] on states whose
    bounds are not NaN and whose rate is 0 for every variable
    [untimed] accepts (default: none). *)

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
    counterpart exactly.  The windows, the move buffer and the Markov
    race are written into the scratch: on networks whose windows are
    all convex a step allocates only the boxed [Value.t] results of
    updates and flows.  perfbench's traced run measures
    [sim.words_per_step] (see [docs/PERFORMANCE.md]). *)

val set_rates : t -> cstate -> unit
(** Refresh the rate vector for the current discrete state
    ([State.rate_array]). *)

val advance : t -> cstate -> float -> unit
(** Delay by [d] under the current rate vector ([State.advance]);
    requires {!set_rates} to have run since the last discrete change. *)

val invariant_window : t -> cstate -> unit
(** [Moves.invariant_window], into slot 0 of {!inv_window}. *)

val inv_window : cstate -> W.t
val move_windows : cstate -> W.t
val goal_window : cstate -> W.t

val discrete : t -> cstate -> int
(** [Moves.discrete] under the invariant window last written: fills
    the move buffer with all enabled τ/sync moves and their windows, in
    the interpreter's order, and returns their number. *)

val move : cstate -> int -> Moves.move
(** The buffered move [i] as a [Moves.move] (allocates). *)

val timed_moves : cstate -> Moves.timed list
(** The move buffer with its windows as a [Moves.discrete] list
    (allocates; valid before {!enabled_after}). *)

val markovian : t -> cstate -> int
(** [Moves.markovian]: writes entry [k]'s rate to [markov_buf.(k)] and
    its process and transition to {!markov_proc}/{!markov_tr}, in the
    interpreter's order, and returns the number of entries. *)

val markov_buf : cstate -> float array
(** Worker-local rates of the exponential race; sized to the network's
    largest possible race. *)

val markov_proc : cstate -> int -> int
val markov_tr : cstate -> int -> int

val apply : t -> cstate -> ?delay:float -> Moves.move -> unit
(** [Moves.apply], in place: {!advance} by [delay] (default 0), then
    the discrete step.  The rate vector must describe the pre-[apply]
    state (it is read by the advance but never written).  Only the
    flows whose inputs the step changed are re-evaluated; the second
    flow pass runs only when a process restarted. *)

val fire : t -> cstate -> int -> unit
(** [apply] of buffered move [i] at delay 0. *)

val fire_markov : t -> cstate -> delay:float -> int -> unit
(** [apply ~delay] of Markov race entry [k]. *)

val invariants_hold : t -> cstate -> bool

val enabled_after : t -> cstate -> float -> int
(** [enabled_after c s d] is [Moves.enabled_after] on the state [d]
    time units before [s], over the move buffer: the caller advances
    [s] by [d] first, and each buffered move whose window contains [d]
    is trial-applied at delay 0 and kept when the landing state
    satisfies the invariants.  Returns the number kept (see the header
    for the buffer contract); [s] is otherwise unchanged. *)

val eval_bool_after : t -> cstate -> cap:float -> cbool -> bool
(** Evaluate a predicate in the state reached by delaying [cap],
    without committing the delay (a journaled trial). *)

(** {1 Formulas} *)

type formula = {
  f_expr : Expr.t;
  f_trivial : bool;  (** the formula is literally [true] *)
  f_bool : cbool;
  f_sat : csat;
  f_win : (cstate -> W.t -> int -> unit) array option;
      (** the window writers of its disjuncts, when it is a left-nested
          disjunction of staged conjunctions (see the header) *)
}

val compile_formula : t -> Expr.t -> formula

val formula_first_point : cstate -> formula -> eps:float -> cap:float -> int
(** [Interval_set.first_point ~eps] of the formula's sat-set ∩
    [\[0, cap\]], through its window writers: [1] with the point in
    {!goal_window}'s {!Slimsim_intervals.Window.point}, [0] for none,
    [-1] when the formula has no writers or a bound is NaN (compute the
    set through [f_sat] then). *)
