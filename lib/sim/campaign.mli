(** A statistical reachability campaign as a first-class, resumable
    value.

    A campaign is created from [(network, goal, strategy, generator,
    supervisor config)] and then {e driven}: each {!step} consumes up to
    a quota of samples in deterministic path order and returns control
    to the caller, so a scheduler can time-slice many campaigns over one
    process.  {!park} halts any worker domains (their unconsumed
    buffered samples are discarded) and leaves the campaign as plain
    data — the same [(seed, path cursor, estimator counters, tallies)]
    tuple the atomic {!Supervisor.Checkpoint} persists; the next {!step}
    respawns workers at the cursor and, because path [i] always draws
    from an RNG derived from [(seed, i)] alone, regenerates any
    discarded sample bit-identically.  A campaign stepped, parked and
    resumed at arbitrary points therefore produces the same verdict
    stream, the same estimate and the same checkpoints as one driven to
    completion in a single call — the property the one-shot {!run} and
    the campaign service both build on.

    Path [i] always draws from an RNG derived from [(seed, i)] and
    samples are consumed in path order (via buffered round-robin
    collection in the parallel case, §III-C), so an estimate is a
    deterministic function of [(model, property, strategy, generator,
    seed)] — independent of the number of workers, of the engine (the
    compiled engine, the default, is bit-identical to the interpreted
    reference), of worker crashes, and of checkpoint/resume.

    A priced query [E[c ; phi]] / [D[c ; phi]] runs the same campaign
    for [phi] with a cost accumulator attached: the exact value of the
    cost variable [c] at each sat path's goal crossing is folded, in
    path order, into a Welford mean/variance, the observed range and 64
    log2 histogram buckets ({!Slimsim_obs.Metrics.bucket_of}).  Cost
    extraction draws nothing from the RNG, so the verdict stream is the
    classic one, and workers, quota stepping, park and checkpoint/resume
    apply to priced campaigns unchanged. *)

open Slimsim_sta

type stop_reason =
  | Converged  (** the statistical stopping rule was satisfied *)
  | Interrupted
      (** the supervisor's stop flag was raised; the estimate is partial
          and the interval reflects the achieved, not the requested,
          confidence *)

type result = {
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
  stopped : stop_reason;
  wall_seconds : float;
      (** wall-clock time spent actively stepping (parked time is not
          billed) *)
}

type t

type status =
  | Running  (** the quota ran out before the stopping rule fired *)
  | Done of result
  | Failed of Path.error

val create :
  ?workers:int ->
  ?seed:int64 ->
  ?config:Path.config ->
  ?engine:[ `Compiled | `Interpreted ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?hold:Expr.t ->
  ?supervisor:Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  ?complement:bool ->
  ?compiled:Compiled.t ->
  ?cost:int * string ->
  Network.t ->
  goal:Expr.t ->
  horizon:float ->
  strategy:Strategy.t ->
  generator:Slimsim_stats.Generator.t ->
  unit ->
  (t, Path.error) Result.t
(** [workers = 1] (the default) runs in-process; [workers > 1] spawns
    that many domains.  [engine] selects the staged compiled core
    ([`Compiled], the default) or the reference interpreter; [compiled]
    supplies an already-staged network so a resident service can
    amortize compilation across campaigns (it must be
    [Compiled.compile] of [net]; ignored by the interpreted engine).
    Scripted strategies downgrade to the interpreter on one worker, with
    a warning when more were requested.  [on_error] decides what a
    path-level error does: [`Abort] (default) stops the campaign with
    that error; [`Unsat] counts the path in [result.errors] and feeds it
    to the generator as a failure.

    [supervisor] carries the robustness policies: divergence policy,
    crash/restart budget, checkpoint/resume and the cooperative stop
    flag (see {!Supervisor}).  [progress] installs a throttled stderr
    heartbeat, ticked once per consumed sample.  [complement] (default
    [false]) makes the heartbeat and {!snapshot} report the estimate of
    [1 - p], as an invariance pattern's answer does.  Observability (metrics,
    structured events) is ambient and performs no RNG draws, so the
    verdict stream is bit-identical with it on or off.

    [cost = (v, query)] attaches the cost accumulator: [v] is the index
    of the clock or continuous variable to observe (from
    {!Slimsim_props.Pattern.resolve_cost}) and [query] the canonical
    query string, pinned into checkpoints.  Fixed-size generators still
    run their planned path count; the chow-robbins rule stops once the
    cost mean's CLT half-width is at most [eps] (after
    {!Slimsim_stats.Generator.min_sequential_samples} sat paths), and
    fails when 100 000 consecutive paths miss the goal.

    [Error] is returned when [supervisor.resume] is set and the
    checkpoint file is unreadable or incompatible: a different seed,
    generator or delta/eps, or a cost block that does not match [cost]
    (present for a classic campaign, absent or for another query for a
    priced one). *)

val step : ?quota:int -> t -> status
(** Consume up to [quota] samples (default: run until the stopping rule
    or stop flag fires), spawning worker domains on demand.  [Running]
    means the quota ran out; workers are left running ahead into their
    bounded buffers, so an immediate next [step] pays no respawn —
    call {!park} to quiesce instead.  Once [Done] or [Failed], further
    calls return the same status without simulating. *)

val park : t -> unit
(** Halt worker domains (discarding their buffered, unconsumed samples)
    and write a checkpoint when the supervisor configures one.  A parked
    campaign holds no threads and no scratch state; the next {!step}
    resumes it bit-identically.  No-op on finished campaigns. *)

val drive : t -> (result, Path.error) Result.t
(** Step to completion.  An [Interrupted] stop reason is an [Ok]
    result. *)

val run :
  ?workers:int ->
  ?seed:int64 ->
  ?config:Path.config ->
  ?engine:[ `Compiled | `Interpreted ] ->
  ?on_error:[ `Abort | `Unsat ] ->
  ?hold:Expr.t ->
  ?supervisor:Supervisor.t ->
  ?progress:Slimsim_obs.Progress.t ->
  Network.t ->
  goal:Expr.t ->
  horizon:float ->
  strategy:Strategy.t ->
  generator:Slimsim_stats.Generator.t ->
  unit ->
  (result, Path.error) Result.t
(** {!create} then {!drive}: a one-shot reachability estimate.  The
    caller finishes [progress]. *)

val status : t -> status
(** Last known status; never simulates. *)

val consumed : t -> int
(** Paths consumed so far (the cursor the next sample is drawn at). *)

val snapshot : t -> float * float * float * int
(** [(mean, ci_low, ci_high, trials)] of the running estimate — safe to
    call between steps (the collector is not running).  Under
    [complement], [(1 - mean, 1 - ci_high, 1 - ci_low, trials)]. *)

val cost : t -> Supervisor.Checkpoint.cost_state option
(** The cost accumulator of a priced campaign, as its checkpoint block
    (a copy); [None] for a classic one.  {!Cost_run.of_campaign} turns
    it into a result. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Collection hooks}

    The pieces of the campaign loop the distributed coordinator
    ({!Slimsim_dist}) reuses verbatim, so that a coordinator merging
    verdict batches from worker processes applies byte-for-byte the
    same error/divergence policies, tallies, checkpoint states and
    summaries as the in-process loop — the accounting half of the
    bit-identity guarantee. *)

(** Mutable verdict-class tallies (deadlocks, hold violations, errors,
    divergences, drops, restarts). *)
type tally

val new_tally : unit -> tally

val note_restart : tally -> unit
(** Count one worker restart (surfaces as [result.worker_restarts]). *)

(** Collector-side metric cells ([slimsim_verdicts_total] and friends);
    [None] when metrics are disabled. *)
type run_obs

val make_run_obs : unit -> run_obs option

val consume :
  ?robs:run_obs ->
  on_error:[ `Abort | `Unsat ] ->
  on_divergence:[ `Abort | `Unsat | `Drop ] ->
  drop_stall_limit:int ->
  path:int ->
  Slimsim_stats.Generator.t ->
  tally ->
  (Path.verdict, Path.error) Result.t ->
  [ `Fed | `Dropped | `Abort of Path.error ]
(** Route one sample (for path id [path]) through the error and
    divergence policies: update the tallies, feed the generator (or
    drop), or ask the caller to abort.  Samples must be presented in
    strictly increasing path order for the estimate to be
    schedule-independent. *)

val summarize :
  Slimsim_stats.Generator.t -> tally -> stopped:stop_reason -> float -> result
(** Close the books: the [result] for the generator's current estimate
    and the tallies, billing the given wall-clock seconds.  Emits the
    [campaign_end] event. *)

val checkpoint_state :
  Slimsim_stats.Generator.t ->
  tally ->
  seed:int64 ->
  next_path:int ->
  Supervisor.Checkpoint.state
(** The persistable state at cursor [next_path], with no lease
    bookkeeping ([leases = []]); a coordinator overrides [leases] with
    its outstanding grants. *)

val write_checkpoint :
  ?robs:run_obs -> Supervisor.t -> file:string -> Supervisor.Checkpoint.state -> unit
(** One atomic checkpoint write, observed (counted, timed, metrics
    re-exported per [supervisor.metrics_file]) when observability is
    on. *)

val resume_base :
  Supervisor.t ->
  Slimsim_stats.Generator.t ->
  tally ->
  seed:int64 ->
  (int, Path.error) Result.t
(** When [supervisor.resume] is set, restore generator and tallies from
    the checkpoint file and return the resume cursor (0 on a fresh
    start; [Error] on an incompatible or unreadable checkpoint,
    including one that carries a cost block). *)

val make_runner :
  engine:[ `Compiled | `Interpreted ] ->
  seed:int64 ->
  ?hold:Expr.t ->
  ?compiled:Compiled.t ->
  Path.config ->
  Network.t ->
  goal:Expr.t ->
  strategy:Strategy.t ->
  worker:int ->
  unit ->
  int ->
  (Path.verdict, Path.error) Result.t
(** The per-worker runner factory: stage the network (unless [compiled]
    is supplied), then build the [path id -> outcome] function for one
    worker.  Path [i] draws from an RNG derived from [(seed, i)] alone,
    so a worker process handed any range of path ids — including a
    range a dead worker lost — generates it bit-identically to the
    in-process engine. *)
