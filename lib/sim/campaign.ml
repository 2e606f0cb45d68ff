(* A campaign is the engine's run loop turned inside out: instead of two
   monolithic sequential/parallel drivers owning the process until the
   stopping rule fires, the loop state (generator, tallies, path cursor)
   lives in a value and each [step] advances it by a bounded quota of
   samples.  Everything determinism rests on is unchanged: path [i]
   draws from an RNG derived from [(seed, i)] alone, and samples are
   consumed in path order — sequentially or via the buffered balanced
   collection of §III-C — so the verdict stream is a function of
   [(model, property, strategy, generator, seed)] no matter how the
   campaign is sliced, parked or resumed.  A priced query E[c ; phi] /
   D[c ; phi] is the same loop with a cost accumulator folded over the
   same verdict stream. *)

module Rng = Slimsim_stats.Rng
module Generator = Slimsim_stats.Generator
module Estimator = Slimsim_stats.Estimator
module Welford = Slimsim_stats.Welford
module Metrics = Slimsim_obs.Metrics
module Log = Slimsim_obs.Log
module Json = Slimsim_obs.Json
module Progress = Slimsim_obs.Progress

type stop_reason = Converged | Interrupted

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
}

type tally = {
  mutable deadlocks : int;
  mutable violated : int;
  mutable errors : int;
  mutable diverged : int;
  mutable dropped : int;
  mutable restarts : int;
  mutable consec_dropped : int;
}

let new_tally () =
  { deadlocks = 0; violated = 0; errors = 0; diverged = 0; dropped = 0;
    restarts = 0; consec_dropped = 0 }

let note_restart tally = tally.restarts <- tally.restarts + 1

(* Collector-side metric cells, created once per campaign when metrics
   are enabled and touched only by the collecting thread (the thread
   calling [step]) — single-writer like the per-worker path cells. *)
type run_obs = {
  v_sat : Metrics.counter;
  v_unsat_horizon : Metrics.counter;
  v_deadlock : Metrics.counter;
  v_timelock : Metrics.counter;
  v_violated : Metrics.counter;
  v_diverged : Metrics.counter;
  v_error : Metrics.counter;
  o_dropped : Metrics.counter;
  o_restarts : Metrics.counter;
  o_checkpoints : Metrics.counter;
  o_checkpoint_seconds : Metrics.histogram;
  o_buffer : Metrics.histogram;
}

let make_run_obs () =
  if not (Metrics.enabled ()) then None
  else
    let vhelp = "Consumed samples by verdict" in
    let v kind =
      Metrics.counter ~labels:[ ("verdict", kind) ] "slimsim_verdicts_total"
        ~help:vhelp
    in
    Some
      {
        v_sat = v "sat";
        v_unsat_horizon = v "unsat_horizon";
        v_deadlock = v "unsat_deadlock";
        v_timelock = v "unsat_timelock";
        v_violated = v "unsat_violated";
        v_diverged = v "diverged";
        v_error = v "error";
        o_dropped =
          Metrics.counter "slimsim_dropped_paths_total"
            ~help:"Diverged paths discarded under the `drop' policy";
        o_restarts =
          Metrics.counter "slimsim_worker_restarts_total"
            ~help:"Crashed workers brought back up";
        o_checkpoints =
          Metrics.counter "slimsim_checkpoints_total"
            ~help:"Checkpoint files written";
        o_checkpoint_seconds =
          Metrics.histogram "slimsim_checkpoint_seconds"
            ~help:"Wall-clock seconds per checkpoint write";
        o_buffer =
          Metrics.histogram "slimsim_buffer_occupancy"
            ~help:
              "Samples queued in the popped worker buffer when the collector \
               takes one";
      }

let robs_incr robs field =
  match robs with Some r -> Metrics.incr (field r) | None -> ()

(* Route one sample through the error and divergence policies.  An
   errored or diverged path under the [`Unsat] policy is fed as a
   failure (conservative for reachability estimates: it can only lower
   the estimated probability); [`Drop] discards the sample without
   feeding it, so the stopping rule keeps asking for more — the
   re-planning is implicit in [Generator.needs_more] seeing fewer
   trials. *)
let consume ?robs ~on_error ~on_divergence ~drop_stall_limit ~path gen tally =
  function
  | Ok (Path.Diverged d) -> (
    tally.diverged <- tally.diverged + 1;
    robs_incr robs (fun r -> r.v_diverged);
    Log.emit ~event:"divergence"
      [
        ("path", Json.Int path);
        ("kind", Json.String (Path.divergence_to_string d));
        ("policy", Json.String (Supervisor.divergence_policy_to_string on_divergence));
      ];
    match on_divergence with
    | `Abort -> `Abort (Path.Diverged_path d)
    | `Unsat ->
      tally.consec_dropped <- 0;
      Generator.feed gen false;
      `Fed
    | `Drop ->
      tally.dropped <- tally.dropped + 1;
      tally.consec_dropped <- tally.consec_dropped + 1;
      robs_incr robs (fun r -> r.o_dropped);
      if tally.consec_dropped >= drop_stall_limit then
        `Abort
          (Path.Model_error
             (Printf.sprintf
                "divergence policy `drop': %d consecutive paths diverged; \
                 the estimate conditioned on non-divergence cannot converge \
                 (raise the watchdog budgets or use --on-divergence unsat)"
                tally.consec_dropped))
      else `Dropped)
  | Ok v ->
    tally.consec_dropped <- 0;
    (match v with
    | Path.Unsat_deadlock | Path.Unsat_timelock ->
      tally.deadlocks <- tally.deadlocks + 1
    | Path.Unsat_violated _ -> tally.violated <- tally.violated + 1
    | Path.Sat _ | Path.Unsat_horizon | Path.Diverged _ -> ());
    (match robs with
    | Some r ->
      Metrics.incr
        (match v with
        | Path.Sat _ -> r.v_sat
        | Path.Unsat_horizon -> r.v_unsat_horizon
        | Path.Unsat_deadlock -> r.v_deadlock
        | Path.Unsat_timelock -> r.v_timelock
        | Path.Unsat_violated _ -> r.v_violated
        | Path.Diverged _ -> r.v_diverged)
    | None -> ());
    Generator.feed gen (match v with Path.Sat _ -> true | _ -> false);
    `Fed
  | Error e -> (
    robs_incr robs (fun r -> r.v_error);
    Log.emit ~event:"path_error"
      [
        ("path", Json.Int path);
        ("error", Json.String (Path.error_to_string e));
        ( "policy",
          Json.String (match on_error with `Abort -> "abort" | `Unsat -> "unsat")
        );
      ];
    match on_error with
    | `Abort -> `Abort e
    | `Unsat ->
      tally.consec_dropped <- 0;
      tally.errors <- tally.errors + 1;
      Generator.feed gen false;
      `Fed)

let summarize gen tally ~stopped wall =
  let est = Generator.estimator gen in
  let lo, hi = Estimator.confidence_interval est ~delta:(Generator.delta gen) in
  let r =
    {
      probability = Estimator.mean est;
      ci_low = lo;
      ci_high = hi;
      paths = Estimator.trials est;
      successes = Estimator.successes est;
      deadlock_paths = tally.deadlocks;
      violated_paths = tally.violated;
      errors = tally.errors;
      diverged_paths = tally.diverged;
      dropped_paths = tally.dropped;
      worker_restarts = tally.restarts;
      stopped;
      wall_seconds = wall;
    }
  in
  Log.emit ~event:"campaign_end"
    [
      ( "stopped",
        Json.String
          (match stopped with
          | Converged -> "converged"
          | Interrupted -> "interrupted") );
      ("probability", Json.Float r.probability);
      ("ci_low", Json.Float r.ci_low);
      ("ci_high", Json.Float r.ci_high);
      ("paths", Json.Int r.paths);
      ("successes", Json.Int r.successes);
      ("deadlock_paths", Json.Int r.deadlock_paths);
      ("violated_paths", Json.Int r.violated_paths);
      ("errors", Json.Int r.errors);
      ("diverged_paths", Json.Int r.diverged_paths);
      ("dropped_paths", Json.Int r.dropped_paths);
      ("worker_restarts", Json.Int r.worker_restarts);
      ("wall_seconds", Json.Float r.wall_seconds);
    ];
  r

(* ------------------------------------------------------------------ *)
(* Checkpointing glue: the campaign state is (seed, path cursor,
   estimator counters, tallies) — see Supervisor.Checkpoint.  This
   tuple is also exactly what a parked campaign is. *)

let checkpoint_state gen tally ~seed ~next_path =
  let est = Generator.estimator gen in
  {
    Supervisor.Checkpoint.seed;
    kind = Generator.kind gen;
    delta = Generator.delta gen;
    eps = Generator.eps gen;
    next_path;
    trials = Estimator.trials est;
    successes = Estimator.successes est;
    deadlocks = tally.deadlocks;
    violated = tally.violated;
    errors = tally.errors;
    diverged = tally.diverged;
    dropped = tally.dropped;
    leases = [];
    cost = None;
  }

(* One checkpoint write, observed: the save is counted and timed, the
   metric registry is re-exported next to it (so a crashed campaign
   leaves current metrics behind along with its progress), and a
   "checkpoint" event is logged.  All of that is skipped — leaving the
   bare historical save — when observability is off. *)
let write_checkpoint ?robs sup ~file st =
  let observed = robs <> None || Log.active () in
  if not observed then Supervisor.Checkpoint.save ~file st
  else begin
    let t0 = Unix.gettimeofday () in
    Supervisor.Checkpoint.save ~file st;
    (match sup.Supervisor.metrics_file with
    | Some mf when Metrics.enabled () -> Metrics.write_file mf
    | _ -> ());
    let dt = Unix.gettimeofday () -. t0 in
    (match robs with
    | Some r ->
      Metrics.incr r.o_checkpoints;
      Metrics.observe r.o_checkpoint_seconds dt
    | None -> ());
    Log.emit ~event:"checkpoint"
      [
        ("file", Json.String file);
        ("next_path", Json.Int st.Supervisor.Checkpoint.next_path);
        ("seconds", Json.Float dt);
      ]
  end

(* ------------------------------------------------------------------ *)
(* The cost accumulator of a priced query E[c ; phi] / D[c ; phi].

   On a Sat verdict the path generator writes the exact value of the
   cost variable at the crossing instant into its worker's cell; the
   collector folds the sat-path costs, in path order, into a Welford
   accumulator (mean, CLT interval), the observed range, and the 64 log2
   histogram buckets (Metrics.bucket_of convention) behind the quantile
   table.  Cost extraction is post-verdict and draws nothing from the
   RNG, so the verdict stream is the classic campaign's, and the
   accumulator — persisted as the checkpoint's cost block — is a
   function of it.

   Stopping: the fixed-size generators (chernoff/hoeffding/gauss) run
   their planned path count unchanged, so the reachability probability
   keeps its guarantee.  The sequential chow-robbins rule re-targets the
   CLT half-width at the cost mean: stop once it is at most eps. *)

(* A sequential rule conditioned on reaching the goal cannot converge
   if the goal is never reached; give up after this many consecutive
   paths without a sat verdict instead of spinning forever. *)
let no_sat_stall_limit = 100_000

(* Cost-specific metric cells, touched only by the collecting thread:
   the cost-value histogram is what lands the distribution rows in
   --metrics output. *)
type cost_obs = {
  h_value : Metrics.histogram;
  c_sat : Metrics.counter;
  c_unsat : Metrics.counter;
}

let make_cost_obs () =
  if not (Metrics.enabled ()) then None
  else
    let paths verdict =
      Metrics.counter
        ~labels:[ ("verdict", verdict) ]
        "slimsim_cost_paths_total"
        ~help:"Paths consumed by the cost campaign, by verdict class"
    in
    Some
      {
        h_value =
          Metrics.histogram "slimsim_cost_value"
            ~help:"Cost observer value at the goal crossing, over sat paths";
        c_sat = paths "sat";
        c_unsat = paths "unsat";
      }

type cost = {
  query : string;  (* canonical query string, pinned into checkpoints *)
  mutable wf : Welford.t;
  buckets : int array;
  mutable cost_min : float;
  mutable cost_max : float;
  mutable no_sat_run : int;  (* consecutive consumed paths without a sat *)
  cobs : cost_obs option;
}

let new_cost query =
  {
    query;
    wf = Welford.create ();
    buckets = Array.make Metrics.n_buckets 0;
    cost_min = infinity;
    cost_max = neg_infinity;
    no_sat_run = 0;
    cobs = make_cost_obs ();
  }

(* Fold one consumed sample: the cost of a kept sat sample joins the
   accumulator; anything else extends the run without a sat verdict. *)
let fold_cost acc consumed sample cost =
  match (consumed, sample) with
  | `Fed, Ok (Path.Sat _) ->
    acc.no_sat_run <- 0;
    Welford.add acc.wf cost;
    let b = Metrics.bucket_of cost in
    acc.buckets.(b) <- acc.buckets.(b) + 1;
    if cost < acc.cost_min then acc.cost_min <- cost;
    if cost > acc.cost_max then acc.cost_max <- cost;
    (match acc.cobs with
    | Some o ->
      Metrics.observe o.h_value cost;
      Metrics.incr o.c_sat
    | None -> ())
  | _ -> (
    acc.no_sat_run <- acc.no_sat_run + 1;
    match acc.cobs with Some o -> Metrics.incr o.c_unsat | None -> ())

let cost_block acc =
  let n, mean, m2 = Welford.state acc.wf in
  {
    Supervisor.Checkpoint.c_query = acc.query;
    c_count = n;
    c_mean = mean;
    c_m2 = m2;
    c_min = acc.cost_min;
    c_max = acc.cost_max;
    c_buckets = Array.copy acc.buckets;
  }

let restore_cost acc (c : Supervisor.Checkpoint.cost_state) =
  acc.wf <- Welford.restore ~n:c.c_count ~mean:c.c_mean ~m2:c.c_m2;
  Array.blit c.c_buckets 0 acc.buckets 0 (Array.length acc.buckets);
  acc.cost_min <- c.c_min;
  acc.cost_max <- c.c_max

(* When [supervisor.resume] is set, restore generator, tallies and cost
   accumulator from the checkpoint and return the resume cursor.  The
   checkpoint must match the campaign: same seed, generator and
   delta/eps, and a cost block exactly when this campaign accumulates a
   cost, for the same canonical query. *)
let resume ?cost sup gen tally ~seed =
  if not sup.Supervisor.resume then Ok 0
  else
    match sup.Supervisor.checkpoint with
    | None ->
      Error (Path.Model_error "resume requested without a checkpoint file")
    | Some { Supervisor.file; _ } ->
      if not (Sys.file_exists file) then Ok 0 (* fresh start, not an error *)
      else (
        match Supervisor.Checkpoint.load ~file with
        | Error msg -> Error (Path.Model_error ("cannot resume: " ^ msg))
        | Ok st -> (
          let mismatch =
            if st.Supervisor.Checkpoint.seed <> seed then
              Some
                (Printf.sprintf "checkpoint was taken with seed %Ld, not %Ld"
                   st.Supervisor.Checkpoint.seed seed)
            else if st.kind <> Generator.kind gen then
              Some "checkpoint was taken with a different statistical generator"
            else if st.delta <> Generator.delta gen || st.eps <> Generator.eps gen
            then Some "checkpoint was taken with different delta/eps"
            else
              match (cost, st.cost) with
              | None, None -> None
              | None, Some _ ->
                Some
                  "checkpoint carries cost-accumulator state; resume it with \
                   the same cost query"
              | Some _, None ->
                Some
                  "checkpoint has no cost-accumulator state (it was taken by \
                   a plain reachability campaign)"
              | Some acc, Some c when c.Supervisor.Checkpoint.c_query <> acc.query
                ->
                Some
                  (Printf.sprintf "checkpoint was taken for query %s, not %s"
                     c.Supervisor.Checkpoint.c_query acc.query)
              | Some _, Some _ -> None
          in
          match mismatch with
          | Some m -> Error (Path.Model_error ("cannot resume: " ^ m))
          | None ->
            Generator.restore gen ~trials:st.trials ~successes:st.successes;
            tally.deadlocks <- st.deadlocks;
            tally.violated <- st.violated;
            tally.errors <- st.errors;
            tally.diverged <- st.diverged;
            tally.dropped <- st.dropped;
            (match (cost, st.cost) with
            | Some acc, Some c -> restore_cost acc c
            | _ -> ());
            Ok st.next_path))

let resume_base sup gen tally ~seed = resume sup gen tally ~seed

(* Per-worker observability: the path generator's cell plus a
   path-duration histogram, both labeled [worker="<w>"] and created in
   the worker's own domain (the factory runs there), so every series has
   a single writer.  [None] when metrics are off — the runner then calls
   the generator directly, with no clock reads. *)
let worker_obs ~worker =
  if not (Metrics.enabled ()) then (None, None)
  else
    ( Some (Path.obs_cell ~worker),
      Some
        (Metrics.histogram
           ~labels:[ ("worker", string_of_int worker) ]
           "slimsim_worker_path_seconds"
           ~help:"Wall-clock seconds spent generating each path, per worker") )

let timed secs f = match secs with None -> f () | Some h -> Metrics.time h f

type outcome = (Path.verdict, Path.error) Result.t

(* A worker's runner, plus the cell its path generator writes the cost
   of each sat path into (read only by priced campaigns). *)
type runner = { run : int -> outcome; cost_cell : float ref }

(* A runner factory: called once per worker (inside that worker's
   domain, so per-worker scratch is domain-local), yielding the
   runner.  The compiled factory stages the
   network once and shares the immutable tables across workers.
   Crash recovery and park/resume both lean on this shape: a
   replacement runner is a fresh factory call, and path [id] always
   draws from an RNG derived from [(seed, id)] alone, so any path a
   dying (or parked) worker lost is regenerated bit-identically by its
   successor. *)

let make_worker ~engine ~seed ?(hold = Slimsim_sta.Expr.true_) ?compiled
    ?cost_var cfg net ~goal ~strategy =
  let cell () =
    let cost_cell = ref nan in
    (cost_cell, Option.map (fun v -> (v, cost_cell)) cost_var)
  in
  match engine with
  | `Interpreted ->
    fun ~worker () ->
      let obs, secs = worker_obs ~worker in
      let cost_cell, cost = cell () in
      let run id =
        let rng = Rng.for_path ~seed ~path:id in
        timed secs (fun () ->
            fst (Path.generate ~hold ?obs ?cost net cfg strategy rng ~goal))
      in
      { run; cost_cell }
  | `Compiled ->
    let c =
      match compiled with
      | Some c -> c
      | None -> Slimsim_sta.Compiled.compile net
    in
    let q = Path.compile_query ~hold c ~goal in
    fun ~worker () ->
      let obs, secs = worker_obs ~worker in
      let s = Slimsim_sta.Compiled.scratch c in
      let cost_cell, cost = cell () in
      let run id =
        let rng = Rng.for_path ~seed ~path:id in
        timed secs (fun () ->
            Path.generate_compiled ?obs ?cost c s q cfg strategy rng)
      in
      { run; cost_cell }

let make_runner ~engine ~seed ?hold ?compiled cfg net ~goal ~strategy =
  let make = make_worker ~engine ~seed ?hold ?compiled cfg net ~goal ~strategy in
  fun ~worker () -> (make ~worker ()).run

(* ------------------------------------------------------------------ *)
(* The campaign value. *)

(* A sample carries the cost cell's value read right after its path ran;
   it is meaningful only for a sat path of a priced campaign. *)
type slot = Sample of outcome * float | Crashed of string

type buffer = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  q : slot Queue.t;
}

(* A live parallel session: worker [w] simulates paths base+w, base+w+k,
   … into its own buffer; the collector consumes buffers in cyclic
   worker order, i.e. in path order base, base+1, base+2, …  This
   implements the buffered balanced collection of [22] — the sample
   stream seen by the (possibly sequential) statistical generator is a
   deterministic function of the seed, independent of scheduling and of
   [k].  Parking tears the whole session down; the next step builds a
   fresh one at the current cursor. *)
type par = {
  k : int;
  par_stop : bool Atomic.t;  (* session-local halt flag, not sup.stop *)
  buffers : buffer array;
  domains : unit Domain.t option array;
  restarts : int array;
  base : int;  (* path id of the first sample of this session *)
  mutable session : int;  (* samples consumed this session *)
}

type seq = { mutable runner : runner }

type exec =
  | Idle  (* parked, or not yet started *)
  | Seq of seq
  | Par of par

type status = Running | Done of result | Failed of Path.error

type t = {
  sup : Supervisor.t;
  on_error : [ `Abort | `Unsat ];
  seed : int64;
  generator : Generator.t;
  progress : Progress.t option;
  complement : bool;  (* running estimates report 1 - p *)
  make : worker:int -> unit -> runner;
  workers : int;
  tally : tally;
  robs : run_obs option;
  cost : cost option;
  mutable next_path : int;
  mutable exec : exec;
  mutable active_seconds : float;  (* stepping wall time, past slices *)
  mutable slice_start : float;  (* start of the slice in flight *)
  mutable outcome : status;
}

let create ?(workers = 1) ?(seed = 0x51135113L) ?config ?(engine = `Compiled)
    ?(on_error = `Abort) ?(hold = Slimsim_sta.Expr.true_) ?supervisor ?progress
    ?(complement = false) ?compiled ?cost net ~goal ~horizon ~strategy ~generator () =
  let sup =
    match supervisor with Some s -> s | None -> Supervisor.default ()
  in
  let cfg =
    match config with
    | Some c -> { c with Path.horizon }
    | None -> Path.default_config ~horizon
  in
  (* Scripts are stateful user callbacks observing immutable states:
     they need the interpreter, and a single worker — parallel lanes
     would interleave their observations.  Downgrading (rather than
     erroring) keeps a campaign runnable when a generic harness passes
     its usual --workers flag. *)
  let engine =
    match strategy with Strategy.Scripted _ -> `Interpreted | _ -> engine
  in
  let workers =
    match strategy with
    | Strategy.Scripted _ when workers > 1 ->
      Log.warn
        ~fields:[ ("requested_workers", Json.Int workers) ]
        (Printf.sprintf
           "scripted strategies are stateful callbacks; running with workers \
            = 1 (requested %d)"
           workers);
      1
    | _ -> workers
  in
  let tally = new_tally () in
  let acc = Option.map (fun (_, query) -> new_cost query) cost in
  match resume ?cost:acc sup generator tally ~seed with
  | Error e -> Error e
  | Ok base ->
    Ok
      {
        sup;
        on_error;
        seed;
        generator;
        progress;
        complement;
        make =
          make_worker ~engine ~seed ~hold ?compiled
            ?cost_var:(Option.map fst cost) cfg net ~goal ~strategy;
        workers;
        tally;
        robs = make_run_obs ();
        cost = acc;
        next_path = base;
        exec = Idle;
        active_seconds = 0.0;
        slice_start = 0.0;
        outcome = Running;
      }

let wall_now t = t.active_seconds +. (Unix.gettimeofday () -. t.slice_start)

let state_of t =
  {
    (checkpoint_state t.generator t.tally ~seed:t.seed ~next_path:t.next_path)
    with
    Supervisor.Checkpoint.cost = Option.map cost_block t.cost;
  }

let save_checkpoint t =
  match t.sup.Supervisor.checkpoint with
  | Some { Supervisor.file; _ } ->
    write_checkpoint ?robs:t.robs t.sup ~file (state_of t)
  | None -> ()

let maybe_checkpoint t =
  match t.sup.Supervisor.checkpoint with
  | Some { Supervisor.file; every } when t.next_path mod every = 0 ->
    write_checkpoint ?robs:t.robs t.sup ~file (state_of t)
  | _ -> ()

(* The heartbeat is ticked once per consumed sample; the (mean,
   half-width) closure is only evaluated when a line actually prints.
   A priced campaign reports the running cost mean. *)
let progress_tick t =
  match (t.progress, t.cost) with
  | None, _ -> ()
  | Some p, None ->
    let est = Generator.estimator t.generator in
    Progress.tick p ~paths:(Estimator.trials est) (fun () ->
        let lo, hi =
          Estimator.confidence_interval est ~delta:(Generator.delta t.generator)
        in
        let mean = Estimator.mean est in
        ((if t.complement then 1.0 -. mean else mean), (hi -. lo) /. 2.0))
  | Some p, Some acc ->
    Progress.tick p ~paths:t.next_path (fun () ->
        ( Welford.mean acc.wf,
          Welford.half_width acc.wf ~delta:(Generator.delta t.generator) ))

(* The stopping decision, taken before each sample.  A fixed-size
   generator runs its planned path count, priced or not; a priced
   sequential campaign stops on the cost mean's half-width instead of
   the probability's. *)
let next_move t =
  if Supervisor.stop_requested t.sup then `Finish Interrupted
  else
    match t.cost with
    | Some acc when Generator.planned_samples t.generator = None ->
      if
        Welford.count acc.wf >= Generator.min_sequential_samples
        && Welford.half_width acc.wf ~delta:(Generator.delta t.generator)
           <= Generator.eps t.generator
      then `Finish Converged
      else if acc.no_sat_run >= no_sat_stall_limit then
        `Fail
          (Path.Model_error
             (Printf.sprintf
                "cost query: %d consecutive paths never reached the goal; \
                 the expected cost conditioned on reaching it cannot \
                 converge (check the property, or use a fixed-size \
                 generator to estimate the probability first)"
                acc.no_sat_run))
      else `Sample
    | _ ->
      if Generator.needs_more t.generator then `Sample else `Finish Converged

let finish_with t stopped =
  save_checkpoint t;
  let r = summarize t.generator t.tally ~stopped (wall_now t) in
  (match t.cost with
  | None -> ()
  | Some acc ->
    let n = Welford.count acc.wf in
    let lo, hi =
      Welford.confidence_interval acc.wf ~delta:(Generator.delta t.generator)
    in
    Log.emit ~event:"cost_end"
      [
        ("query", Json.String acc.query);
        ( "stopped",
          Json.String
            (match stopped with
            | Converged -> "converged"
            | Interrupted -> "interrupted") );
        ("cost_samples", Json.Int n);
        ("cost_mean", Json.Float (if n = 0 then nan else Welford.mean acc.wf));
        ("cost_ci_low", Json.Float lo);
        ("cost_ci_high", Json.Float hi);
        ("paths", Json.Int r.paths);
        ("probability", Json.Float r.probability);
        ("wall_seconds", Json.Float r.wall_seconds);
      ]);
  t.outcome <- Done r;
  Done r

let fail_with t e =
  t.outcome <- Failed e;
  Failed e

(* Route one sample through the error/divergence policies and fold its
   cost: what both stepping loops do once its path id is settled.
   [Some e] asks the caller to abort. *)
let take t ~path sample cost =
  match
    consume ?robs:t.robs ~on_error:t.on_error
      ~on_divergence:t.sup.Supervisor.on_divergence
      ~drop_stall_limit:t.sup.Supervisor.drop_stall_limit ~path t.generator
      t.tally sample
  with
  | `Abort e -> Some e
  | (`Fed | `Dropped) as consumed ->
    (match t.cost with
    | Some acc -> fold_cost acc consumed sample cost
    | None -> ());
    None

(* --- sequential stepping --- *)

(* A runner exception is a "worker crash" even in-process: rebuild the
   runner (fresh scratch state) and replay the same path id —
   deterministic regeneration makes the retry invisible in the verdict
   stream. *)
let seq_attempt t e i =
  let rec attempt tries =
    match
      (match t.sup.Supervisor.chaos with
      | Some inject -> inject ~worker:0 ~path:i
      | None -> ());
      e.runner.run i
    with
    | outcome -> Ok outcome
    | exception exn ->
      if tries >= t.sup.Supervisor.max_restarts then
        Error (Path.Worker_crash (Printexc.to_string exn))
      else begin
        t.tally.restarts <- t.tally.restarts + 1;
        robs_incr t.robs (fun r -> r.o_restarts);
        Log.emit ~event:"worker_restart"
          [
            ("worker", Json.Int 0);
            ("path", Json.Int i);
            ("error", Json.String (Printexc.to_string exn));
            ("attempt", Json.Int (tries + 1));
          ];
        Unix.sleepf (Supervisor.backoff_delay t.sup ~attempt:tries);
        e.runner <- t.make ~worker:0 ();
        attempt (tries + 1)
      end
  in
  attempt 0

let step_seq t quota =
  let e =
    match t.exec with
    | Seq e -> e
    | Idle ->
      let e = { runner = t.make ~worker:0 () } in
      t.exec <- Seq e;
      e
    | Par _ -> assert false
  in
  let rec go budget =
    match next_move t with
    | `Finish stopped -> finish_with t stopped
    | `Fail err -> fail_with t err
    | `Sample when budget <= 0 -> Running
    | `Sample -> (
      let i = t.next_path in
      match seq_attempt t e i with
      | Error err -> fail_with t err
      | Ok sample -> (
        match take t ~path:i sample !(e.runner.cost_cell) with
        | Some err -> fail_with t err
        | None ->
          t.next_path <- i + 1;
          maybe_checkpoint t;
          progress_tick t;
          go (budget - 1)))
  in
  go quota

(* --- parallel stepping --- *)

(* Each worker owns a bounded buffer with its own mutex and a condition
   per direction, so a push or pop wakes exactly the one party waiting
   on that buffer instead of broadcasting to the whole fleet. *)

let push_sample ~max_buffer ~stop b slot =
  Mutex.lock b.mutex;
  while Queue.length b.q >= max_buffer && not (Atomic.get stop) do
    Condition.wait b.not_full b.mutex
  done;
  if not (Atomic.get stop) then begin
    Queue.push slot b.q;
    Condition.signal b.not_empty
  end;
  Mutex.unlock b.mutex

(* A crashing worker's dying word skips the capacity bound: the
   collector must see the [Crashed] marker even if the buffer is
   full, and the worker is about to die so it cannot wait. *)
let push_dying b slot =
  Mutex.lock b.mutex;
  Queue.push slot b.q;
  Condition.signal b.not_empty;
  Mutex.unlock b.mutex

let pop b observe_occupancy =
  Mutex.lock b.mutex;
  while Queue.is_empty b.q do
    Condition.wait b.not_empty b.mutex
  done;
  observe_occupancy b.q;
  let slot = Queue.pop b.q in
  Condition.signal b.not_full;
  Mutex.unlock b.mutex;
  slot

(* Worker [w] pushes exactly one slot per path, in path order, so slot
   positions and path ids stay aligned; an exception escaping the
   runner surfaces as a terminal [Crashed] slot sitting exactly where
   the lost path's sample would have been. *)
let worker_body t p w start () =
  match
    Log.emit ~event:"worker_start"
      [ ("worker", Json.Int w); ("first_path", Json.Int start) ];
    let runner = t.make ~worker:w () in
    let rec go id =
      if Atomic.get p.par_stop then ()
      else begin
        (match t.sup.Supervisor.chaos with
        | Some inject -> inject ~worker:w ~path:id
        | None -> ());
        let outcome = runner.run id in
        push_sample ~max_buffer:t.sup.Supervisor.max_buffer ~stop:p.par_stop
          p.buffers.(w) (Sample (outcome, !(runner.cost_cell)));
        go (id + p.k)
      end
    in
    go start
  with
  | () -> ()
  | exception exn -> push_dying p.buffers.(w) (Crashed (Printexc.to_string exn))

let spawn_worker t p w start =
  p.domains.(w) <- Some (Domain.spawn (worker_body t p w start))

let join_worker p w =
  match p.domains.(w) with
  | Some d ->
    Domain.join d;
    p.domains.(w) <- None
  | None -> ()

let spawn_par t =
  let k = t.workers in
  let p =
    {
      k;
      par_stop = Atomic.make false;
      buffers =
        Array.init k (fun _ ->
            {
              mutex = Mutex.create ();
              not_empty = Condition.create ();
              not_full = Condition.create ();
              q = Queue.create ();
            });
      domains = Array.make k None;
      restarts = Array.make k 0;
      base = t.next_path;
      session = 0;
    }
  in
  for w = 0 to k - 1 do
    spawn_worker t p w (p.base + w)
  done;
  p

let halt_par t p =
  Atomic.set p.par_stop true;
  Array.iter
    (fun b ->
      Mutex.lock b.mutex;
      Condition.broadcast b.not_full;
      Condition.broadcast b.not_empty;
      Mutex.unlock b.mutex)
    p.buffers;
  for w = 0 to p.k - 1 do
    join_worker p w
  done;
  t.exec <- Idle

let step_par t quota =
  let p =
    match t.exec with
    | Par p -> p
    | Idle ->
      let p = spawn_par t in
      t.exec <- Par p;
      p
    | Seq _ -> assert false
  in
  (* The collector owns the occupancy histogram: observed under the
     buffer lock just before each pop, it records how far ahead the
     popped worker was running. *)
  let observe_occupancy q =
    match t.robs with
    | Some r -> Metrics.observe r.o_buffer (float_of_int (Queue.length q))
    | None -> ()
  in
  let finish stopped =
    halt_par t p;
    finish_with t stopped
  in
  let fail e =
    halt_par t p;
    fail_with t e
  in
  let rec collect budget =
    match next_move t with
    | `Finish stopped -> finish stopped
    | `Fail e -> fail e
    | `Sample when budget <= 0 -> Running
    | `Sample -> (
      let w = p.session mod p.k in
      match pop p.buffers.(w) observe_occupancy with
      | Crashed msg ->
        (* The worker already died; join reclaims the domain.  Its
           replacement restarts at the exact path the collector is
           waiting for — everything earlier was already buffered in
           order, everything later is regenerated from per-path
           seeds, so the verdict stream is bit-identical to a
           crash-free run. *)
        join_worker p w;
        Log.emit ~event:"worker_crash"
          [
            ("worker", Json.Int w);
            ("path", Json.Int t.next_path);
            ("error", Json.String msg);
          ];
        if p.restarts.(w) >= t.sup.Supervisor.max_restarts then
          fail (Path.Worker_crash (Printf.sprintf "worker %d: %s" w msg))
        else begin
          let attempt = p.restarts.(w) in
          p.restarts.(w) <- p.restarts.(w) + 1;
          t.tally.restarts <- t.tally.restarts + 1;
          robs_incr t.robs (fun r -> r.o_restarts);
          Log.emit ~event:"worker_restart"
            [
              ("worker", Json.Int w);
              ("path", Json.Int t.next_path);
              ("attempt", Json.Int (attempt + 1));
            ];
          Unix.sleepf (Supervisor.backoff_delay t.sup ~attempt);
          spawn_worker t p w t.next_path;
          collect budget
        end
      | Sample (sample, cost) -> (
        let path = p.base + p.session in
        p.session <- p.session + 1;
        t.next_path <- p.base + p.session;
        match take t ~path sample cost with
        | Some e -> fail e
        | None ->
          maybe_checkpoint t;
          progress_tick t;
          collect (budget - 1)))
  in
  collect quota

(* --- public driving interface --- *)

let step ?(quota = max_int) t =
  match t.outcome with
  | (Done _ | Failed _) as s -> s
  | Running ->
    t.slice_start <- Unix.gettimeofday ();
    let s =
      if t.workers <= 1 then step_seq t quota else step_par t quota
    in
    t.active_seconds <-
      t.active_seconds +. (Unix.gettimeofday () -. t.slice_start);
    s

let park t =
  match t.outcome with
  | Done _ | Failed _ -> ()
  | Running ->
    (match t.exec with
    | Par p -> halt_par t p
    | Seq _ -> t.exec <- Idle
    | Idle -> ());
    save_checkpoint t

let rec drive t =
  match step t with
  | Done r -> Ok r
  | Failed e -> Error e
  | Running -> drive t

let run ?workers ?seed ?config ?engine ?on_error ?hold ?supervisor ?progress
    net ~goal ~horizon ~strategy ~generator () =
  Result.bind
    (create ?workers ?seed ?config ?engine ?on_error ?hold ?supervisor
       ?progress net ~goal ~horizon ~strategy ~generator ())
    drive

let status t = t.outcome
let consumed t = t.next_path

let snapshot t =
  let est = Generator.estimator t.generator in
  let lo, hi =
    Estimator.confidence_interval est ~delta:(Generator.delta t.generator)
  in
  let mean = Estimator.mean est and trials = Estimator.trials est in
  if t.complement then (1.0 -. mean, 1.0 -. hi, 1.0 -. lo, trials)
  else (mean, lo, hi, trials)

let cost t = Option.map cost_block t.cost

let pp_result ppf r =
  Fmt.pf ppf
    "p = %.6f  [%.6f, %.6f]  (%d/%d paths, %d dead/timelocked, %.2fs)"
    r.probability r.ci_low r.ci_high r.successes r.paths r.deadlock_paths
    r.wall_seconds;
  if r.violated_paths > 0 then Fmt.pf ppf " (%d hold-violated)" r.violated_paths;
  if r.errors > 0 then Fmt.pf ppf " (%d errored)" r.errors;
  if r.diverged_paths > 0 then
    Fmt.pf ppf " (%d diverged, %d dropped)" r.diverged_paths r.dropped_paths;
  if r.worker_restarts > 0 then
    Fmt.pf ppf " (%d worker restarts)" r.worker_restarts;
  if r.stopped = Interrupted then Fmt.pf ppf " [interrupted]"
