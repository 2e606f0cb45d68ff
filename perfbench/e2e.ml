(* End-to-end benchmark: time to answer the paper's timed-reachability
   queries at a fixed (delta, eps), run whole through the public entry
   points at a fixed seed, with every answer checked against a
   reference that does not come from the simulator under test.

     e2e --workload NAME --seed N --seconds S --trace 0|1
     e2e --reference fig5-launcher

   [--trace 0] measures the end-to-end metrics with no tracing at all.
   [--trace 1] is the separate traced run: it times calls into each
   layer's public functions from here, replays the campaign's path ids
   on one thread, checks that the replay reproduces the untraced
   campaign's verdicts, and reports the per-layer metrics.  Spans are
   kept in memory and written to perfbench/out/ when the run ends.  The
   last line of standard output is the JSON result; README.md in this
   directory documents the workloads and metrics. *)

module Metrics = Slimsim_obs.Metrics
module Path = Slimsim_sim.Path
module Campaign = Slimsim_sim.Campaign
module Cost_run = Slimsim_sim.Cost_run
module Compiled = Slimsim_sta.Compiled
module Pattern = Slimsim_props.Pattern
module Welford = Slimsim_stats.Welford
module Rng = Slimsim_stats.Rng
module Q = Perfbench.Quantile
module Speed = Perfbench.Speed

let now = Unix.gettimeofday

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt
let ok_or what = function Ok x -> x | Error e -> fail "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* Spans: recorded in memory around calls into a layer, written out
   once at the end of a traced run. *)

type span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  stop : float;
  attrs : (string * float) list;
}

let spans = ref []
let last_span = ref 0
let open_span = ref 0
let run_start = now ()

(* Time [f] as a span named [name], child of the enclosing span;
   [attrs] turns the result into attributes recorded with the span. *)
let span ?(attrs = fun _ -> []) name f =
  let parent = !open_span in
  incr last_span;
  let id = !last_span in
  open_span := id;
  let start = now () in
  let r = Fun.protect ~finally:(fun () -> open_span := parent) f in
  let stop = now () in
  spans := { id; parent; name; start; stop; attrs = attrs r } :: !spans;
  (r, stop -. start)

let write_spans file =
  (try Sys.mkdir (Filename.dirname file) 0o755 with Sys_error _ -> ());
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            {|{"id": %d, "parent": %d, "name": %S, "start_s": %.9f, "dur_s": %.9f%s}|}
            s.id s.parent s.name (s.start -. run_start) (s.stop -. s.start)
            (String.concat ""
               (List.map (fun (k, v) -> Printf.sprintf {|, %S: %.17g|} k v) s.attrs));
          output_char oc '\n')
        (List.rev !spans))

(* ------------------------------------------------------------------ *)
(* Answers and their references. *)

type answer = {
  value : float;  (** the probability, or the cost mean for E[...] *)
  half_width : float;
  paths : int;
  successes : int;
  failed_paths : int;  (** errored, diverged or dropped paths *)
  cost_samples : int;
  campaign_s : float;  (** campaign wall time, as the engine bills it *)
}

type sampling = {
  source : string;
  query : string;
  reach_property : string;
      (** the query's reachability part, for the pre-pass *)
  strategy : Slimsim.Strategy.t;
  generator : Slimsim.Generator.kind;
  delta : float;
  eps : float;
  priced : bool;
  check : answer -> (unit, string) result;
}

let failed_of_tallies ~errors ~diverged ~dropped = errors + diverged + dropped

(* The end-to-end runs answer at one worker; the traced run also at
   two (see README.md). *)
let answer_of ~seed ?(workers = 1) w =
  let m = ok_or "load" (Slimsim.load_string w.source) in
  let a =
    if w.priced then
      match
        Slimsim.check_cost ~seed ~generator:w.generator m ~query:w.query
          ~strategy:w.strategy ~delta:w.delta ~eps:w.eps ()
      with
      | Ok (Slimsim.Cost_expected r) ->
        let c = r.Cost_run.reach in
        {
          value = r.Cost_run.cost_mean;
          half_width = (r.Cost_run.cost_ci_high -. r.Cost_run.cost_ci_low) /. 2.0;
          paths = c.Campaign.paths;
          successes = c.Campaign.successes;
          failed_paths =
            failed_of_tallies ~errors:c.Campaign.errors
              ~diverged:c.Campaign.diverged_paths ~dropped:c.Campaign.dropped_paths;
          cost_samples = r.Cost_run.cost_samples;
          campaign_s = c.Campaign.wall_seconds;
        }
      | Ok _ -> fail "priced query did not yield an expectation"
      | Error e -> fail "check_cost: %s" e
    else
      let e =
        ok_or "check"
          (Slimsim.check ~workers ~seed ~generator:w.generator m ~property:w.query
             ~strategy:w.strategy ~delta:w.delta ~eps:w.eps ())
      in
      {
        value = e.Slimsim.probability;
        half_width = (e.Slimsim.ci_high -. e.Slimsim.ci_low) /. 2.0;
        paths = e.Slimsim.paths;
        successes = e.Slimsim.successes;
        failed_paths =
          failed_of_tallies ~errors:e.Slimsim.errors ~diverged:e.Slimsim.diverged_paths
            ~dropped:e.Slimsim.dropped_paths;
        cost_samples = 0;
        campaign_s = e.Slimsim.wall_seconds;
      }
  in
  if a.paths = 0 then fail "the pre-pass answered a sampling workload without sampling";
  a

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_verdicts a b =
  a.paths = b.paths && a.successes = b.successes
  && a.failed_paths = b.failed_paths
  && a.cost_samples = b.cost_samples
  && (a.cost_samples = 0 || same_bits a.value b.value)

let within ~what ~tol ~reference v =
  if Float.abs (v -. reference) <= tol then Ok ()
  else
    Error
      (Printf.sprintf "%s %.6f is %.6f from the reference %.6f (tolerance %.6f)" what v
         (Float.abs (v -. reference)) reference tol)

(* The launcher reference: one tight-eps run on the interpreted engine
   (the oracle for the compiled one), stored with its command in
   fig5_launcher.ref. *)
let launcher_reference_query =
  Printf.sprintf "P(<> [0, 50] %s)" Slimsim_models.Launcher.goal_failure

let launcher_ref_delta = 0.001
let launcher_ref_eps = 0.01
let launcher_ref_seed = 20150622L
let launcher_ref_file = "perfbench/fig5_launcher.ref"

let print_launcher_reference () =
  let m =
    ok_or "load"
      (Slimsim.load_string (Slimsim_models.Launcher.source ~variant:`Recoverable))
  in
  let e =
    ok_or "check"
      (Slimsim.check ~engine:`Interpreted ~workers:2 ~seed:launcher_ref_seed m
         ~property:launcher_reference_query ~strategy:Slimsim.Strategy.Progressive
         ~delta:launcher_ref_delta ~eps:launcher_ref_eps ())
  in
  Printf.printf
    "# Reference answer for the fig5-launcher workload: the interpreted engine,\n\
     # Chernoff delta=%g eps=%g, %d paths, seed %Ld, workers 2.\n\
     # Produced by: bash perfbench/run.sh --reference fig5-launcher > %s\n\
     query %s\n\
     probability %.17g\n\
     eps %g\n"
    launcher_ref_delta launcher_ref_eps e.Slimsim.paths launcher_ref_seed launcher_ref_file
    launcher_reference_query e.Slimsim.probability launcher_ref_eps

let read_launcher_reference () =
  let text = In_channel.with_open_text launcher_ref_file In_channel.input_all in
  let field k =
    List.find_map
      (fun l ->
        match String.index_opt l ' ' with
        | Some i when String.sub l 0 i = k ->
          Some (String.sub l (i + 1) (String.length l - i - 1))
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  match (field "query", Option.bind (field "probability") float_of_string_opt,
         Option.bind (field "eps") float_of_string_opt) with
  | Some q, Some p, Some e when q = launcher_reference_query -> (p, e)
  | _ ->
    fail "%s does not hold a reference for %s" launcher_ref_file
      launcher_reference_query

(* ------------------------------------------------------------------ *)
(* Workloads.  Every model text is built or read here, before any
   timing starts. *)

let table1_sensor_filter () =
  let n = 4 and horizon = 1800.0 and eps = 0.01 in
  let goal = Slimsim_models.Sensor_filter.goal_all_failed ~n in
  let exact = Slimsim_models.Sensor_filter.closed_form ~n ~horizon in
  {
    source = Slimsim_models.Sensor_filter.source ~n;
    query = Printf.sprintf "P(<> [0, 1800] %s)" goal;
    reach_property = Printf.sprintf "P(<> [0, 1800] %s)" goal;
    strategy = Slimsim.Strategy.Asap;
    generator = Slimsim.Generator.Chernoff;
    delta = 0.05;
    eps;
    priced = false;
    check = (fun a -> within ~what:"P" ~tol:eps ~reference:exact a.value);
  }

let fig5_launcher () =
  let ref_p, ref_eps = read_launcher_reference () in
  let eps = 0.1 in
  {
    source = Slimsim_models.Launcher.source ~variant:`Recoverable;
    query = launcher_reference_query;
    reach_property = launcher_reference_query;
    strategy = Slimsim.Strategy.Progressive;
    generator = Slimsim.Generator.Chernoff;
    delta = 0.1;
    eps;
    priced = false;
    check = (fun a -> within ~what:"P" ~tol:(eps +. ref_eps) ~reference:ref_p a.value);
  }

(* examples/models/mm1k_priced.slim: arrivals at 0.8 up to 4 waiting
   jobs, services at 1, the cost w growing at the queue length. *)
let queue_chain =
  { Perfbench.Queue_ref.arrival = 0.8; service = 1.0; capacity = 4; target = 5 }
let queue_horizon = 100.0

(* A Chow-Robbins interval misses its target with probability delta by
   design, so "inside the interval" would fail one seed in twenty.  The
   check keeps the interval's centre and scales its half-width from
   the 1 - delta level to the 1 - 1e-6 level: a biased estimator still
   fails it, an honest one essentially never does. *)
let queue_check_level = 1e-6

let priced_queue () =
  let source =
    In_channel.with_open_text "examples/models/mm1k_priced.slim" In_channel.input_all
  in
  let delta = 0.05 and eps = 0.03 in
  let exact = (Perfbench.Queue_ref.first_passage_reward queue_chain).mean in
  let truncation =
    Perfbench.Queue_ref.truncation_bound queue_chain ~horizon:queue_horizon
  in
  let widen =
    Slimsim_stats.Bound.normal_quantile (1.0 -. (queue_check_level /. 2.0))
    /. Slimsim_stats.Bound.normal_quantile (1.0 -. (delta /. 2.0))
  in
  if not (truncation < eps /. 100.0) then
    fail "horizon truncation %g is not negligible against eps %g" truncation eps;
  {
    source;
    query = "E[w ; <> [0, 100] served = 5]";
    reach_property = "P(<> [0, 100] served = 5)";
    strategy = Slimsim.Strategy.Asap;
    generator = Slimsim.Generator.Chow_robbins;
    delta;
    eps;
    priced = true;
    check =
      (fun a ->
        within ~what:"E[w]" ~tol:((widen *. a.half_width) +. truncation) ~reference:exact
          a.value);
  }

(* ------------------------------------------------------------------ *)
(* Cold submissions: load, lint, stage, pre-pass — the path of
   [slimsim lint --property] and of a cold serve submit. *)

type submission = { src : string; property : string; expected : string }

let check_certificate s cert =
  let got = Option.value cert ~default:"inconclusive" in
  if got = s.expected then Ok ()
  else
    Error (Printf.sprintf "certificate %s for %s, expected %s" got s.property s.expected)

(* Untraced, through the facade.  Returns (certificate, setup seconds
   = load + stage + pre-pass, whole submission seconds). *)
let submit s =
  let t0 = now () in
  let m = ok_or "load" (Slimsim.load_string s.src) in
  let t1 = now () in
  ignore (Sys.opaque_identity (Slimsim.lint m));
  let t2 = now () in
  ignore (Sys.opaque_identity (Compiled.compile (Slimsim.network m)));
  let report, complement = ok_or "prepass" (Slimsim.prepass m ~property:s.property) in
  let t3 = now () in
  ( Slimsim.certificate_of ~complement report.Slimsim_analyze.Prepass.outcome,
    t1 -. t0 +. (t3 -. t2),
    t3 -. t0 )

type layers = {
  mutable parse : float;
  mutable sema : float;
  mutable translate : float;
  mutable slim_words : float;
  mutable bytes : int;
  mutable stage : float;
  mutable prepass : float;
  mutable lint : float;
}

let new_layers () =
  { parse = 0.; sema = 0.; translate = 0.; slim_words = 0.; bytes = 0; stage = 0.;
    prepass = 0.; lint = 0. }

let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Traced: the same work as [submit], each layer called through its own
   public functions inside a span, with its time added to [l]. *)
let submit_traced l s =
  let frontend name f =
    let (r, w), t = span name (fun () -> words f) in
    l.slim_words <- l.slim_words +. w;
    (r, t)
  in
  let ast, t = frontend "slim.parse" (fun () -> Slimsim_slim.Parser.parse_model s.src) in
  let ast = ok_or "parse" ast in
  l.parse <- l.parse +. t;
  l.bytes <- l.bytes + String.length s.src;
  let tables, t = frontend "slim.sema" (fun () -> Slimsim_slim.Sema.analyze ast) in
  let tables =
    ok_or "sema" (Result.map_error Slimsim_slim.Sema.errors_to_string tables)
  in
  l.sema <- l.sema +. t;
  let net, t =
    frontend "slim.translate" (fun () -> Slimsim_slim.Translate.translate tables)
  in
  let net = ok_or "translate" net in
  l.translate <- l.translate +. t;
  let _, t =
    span "analyze.lint" (fun () ->
        Sys.opaque_identity (Slimsim_analyze.Lint.run tables net))
  in
  l.lint <- l.lint +. t;
  let _, t = span "sta.stage" (fun () -> Sys.opaque_identity (Compiled.compile net)) in
  l.stage <- l.stage +. t;
  let cert, t =
    span "analyze.prepass" (fun () ->
        let enum x = Option.map snd (Slimsim_slim.Sema.enum_literal tables x) in
        let pat = ok_or "property" (Pattern.parse s.property) in
        let goal, hold, _ = ok_or "property" (Pattern.resolve ~enum net pat) in
        let report = Slimsim_analyze.Prepass.analyze ?hold net ~goal in
        Slimsim.certificate_of ~complement:pat.Pattern.complement
          report.Slimsim_analyze.Prepass.outcome)
  in
  l.prepass <- l.prepass +. t;
  cert

let golden_file = "test/prepass.golden"

let cold_rows () =
  let rows = ok_or golden_file (Perfbench.Golden.read_file golden_file) in
  if rows = [] then fail "%s has no rows" golden_file;
  List.map
    (fun r ->
      let path = Filename.concat "examples/models" r.Perfbench.Golden.model in
      {
        src = In_channel.with_open_text path In_channel.input_all;
        property = r.Perfbench.Golden.property;
        expected = r.Perfbench.Golden.certificate;
      })
    rows
  |> Array.of_list

(* The seed fixes the order rows are submitted in, pass by pass. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Results. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let outcome = { attempted = 0; failed = 0; problems = [] }

let note_check what = function
  | Ok () -> ()
  | Error e ->
    outcome.failed <- outcome.failed + 1;
    outcome.problems <- (what ^ ": " ^ e) :: outcome.problems

let count_answer what check a =
  outcome.attempted <- outcome.attempted + 1 + a.paths;
  outcome.failed <- outcome.failed + a.failed_paths;
  note_check what (check a)

let emit metrics =
  let correct = outcome.problems = [] in
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) (List.rev outcome.problems);
  List.iter (fun x -> Printf.printf "%-32s %.6g %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "failed_share %.6g (%d of %d attempted)\n"
    (Float.of_int outcome.failed /. Float.of_int (max 1 outcome.attempted))
    outcome.failed outcome.attempted;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (correct && finite) (max 1 outcome.attempted) outcome.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf {|%S: {"value": %.17g, "unit": %S}|} x.name
              (if Float.is_finite x.value then x.value else 0.0)
              x.unit_)
          metrics));
  print_newline ();
  if not (correct && finite) then exit 1

let peak_heap_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let ms x = 1000.0 *. x

(* ------------------------------------------------------------------ *)
(* Untraced runs: the end-to-end metrics.  A run takes calibration
   points between its units of work and is reported at reference speed
   ([Speed]), one factor for the whole run; the unscaled medians are
   printed beside the result. *)

(* Submissions take this share of a sampling run, and at least
   [min_submits] are made so that p98 has ten or more samples above it.
   A calibration point is taken every [batch_s] seconds of submissions. *)
let setup_share = 0.2
let min_submits = 500
let batch_s = 0.05

(* One pass over the submissions: the summed set-up time and each
   submission's latency. *)
let submit_pass subs =
  Array.fold_left
    (fun (setup, lat) s ->
      let cert, su, total = submit s in
      outcome.attempted <- outcome.attempted + 1;
      note_check "certificate" (check_certificate s cert);
      (setup +. su, total :: lat))
    (0.0, []) subs

let sampling_submission w =
  { src = w.source; property = w.reach_property; expected = "inconclusive" }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Samples are kept outside the OCaml heap, in a Bigarray, so the
   benchmark's own bookkeeping does not show in [peak_heap_mb]. *)
type samples = {
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable n : int;
}

let samples () =
  { data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (1 lsl 18); n = 0 }

let add s x =
  if s.n < Bigarray.Array1.dim s.data then begin
    Bigarray.Array1.set s.data s.n x;
    s.n <- s.n + 1
  end

let values s = Array.init s.n (Bigarray.Array1.get s.data)
let median_of s = Q.median (values s)

(* Reads the heap peak first, then scales the raw samples — [answers]
   and [rates] per query or per pass, [setups] and [lat] per set-up and
   per submission — by the run's factor [scale]. *)
let end_to_end ~answers ~rates ~setups ~lat ~scale =
  let peak = peak_heap_mb () in
  let spread s = if s.n < 2 then nan else Q.spread (values s) in
  Printf.printf
    "answers %d, unscaled median %.6g s, spread %.3f; submissions %d; set-ups %d, \
     unscaled median %.6g s, spread %.3f; scale %.4f\n"
    answers.n (median_of answers) (spread answers) lat.n setups.n (median_of setups)
    (spread setups) scale;
  let lat = values lat in
  [
    m "answer_s" "s" (scale *. median_of answers);
    m "setup_s" "s" (scale *. median_of setups);
    m "items_per_s" "1/s" (median_of rates /. scale);
    m "submit_ms_p50" "ms" (ms (scale *. Q.median lat));
    m "submit_ms_p98" "ms" (ms (scale *. Q.percentile lat 0.98));
    m "peak_heap_mb" "MB" peak;
  ]

let sampling_untraced ~seed ~seconds ~rows w =
  let st = Random.State.make [| Int64.to_int seed |] in
  let start = now () in
  let cal = Speed.create () in
  let answers = samples () and rates = samples () in
  let setups = samples () and lat = samples () in
  let sub = [| sampling_submission w |] in
  (* Each query is followed by submissions for [setup_share] of its
     time, so both see the same drift in machine speed.  Batches
     alternate: the workload's own model, whose set-up times give
     [setup_s], and passes over the cold-certify rows in a seed-shuffled
     order, whose latencies give the latency metrics.  With the own
     model alone those would be quantiles of one submission repeated,
     whose 98th percentile is set by how often the shared host slows
     the process down, not by the program; in one batch with the rows,
     a small model's set-up would pay for the rows' garbage. *)
  let own_batch = ref true in
  let submit_for budget =
    let stop = now () +. budget in
    while now () < stop do
      Speed.point cal;
      let batch_stop = Float.min stop (now () +. batch_s) in
      while now () < batch_stop do
        if !own_batch then add setups (fst (submit_pass sub))
        else List.iter (add lat) (snd (submit_pass (shuffle st rows)))
      done;
      own_batch := not !own_batch
    done
  in
  while answers.n = 0 || now () < start +. seconds do
    Speed.point cal;
    let a, t = timed (fun () -> answer_of ~seed w) in
    count_answer "answer" w.check a;
    add answers t;
    add rates (Float.of_int a.paths /. a.campaign_s);
    submit_for (t *. setup_share /. (1.0 -. setup_share))
  done;
  while lat.n < min_submits do
    submit_for batch_s
  done;
  end_to_end ~answers ~rates ~setups ~lat ~scale:(Speed.scale cal)

let cold_untraced ~seed ~seconds rows =
  let st = Random.State.make [| seed |] in
  let start = now () in
  let cal = Speed.create () in
  let passes = samples () and rates = samples () in
  let setups = samples () and lat = samples () in
  while passes.n = 0 || now () < start +. seconds do
    Speed.point cal;
    let (s, l), t = timed (fun () -> submit_pass (shuffle st rows)) in
    add passes t;
    add rates (Float.of_int (Array.length rows) /. t);
    add setups s;
    List.iter (add lat) l
  done;
  end_to_end ~answers:passes ~rates ~setups ~lat ~scale:(Speed.scale cal)

(* ------------------------------------------------------------------ *)
(* Traced runs: the per-layer metrics. *)

(* Run traced submission passes for [budget] seconds (at least
   [min_passes], at most [max_traced_passes] so the span file stays
   small); per-layer figures are medians of per-pass sums. *)
let max_traced_passes = 2000

let layer_metrics ~budget ~min_passes ~order subs =
  let start = now () in
  let passes = ref [] in
  while
    List.length !passes < min_passes
    || (now () < start +. budget && List.length !passes < max_traced_passes)
  do
    let l = new_layers () in
    let (), _ =
      span "submit_pass" (fun () ->
          Array.iter
            (fun s ->
              outcome.attempted <- outcome.attempted + 1;
              note_check "certificate" (check_certificate s (submit_traced l s)))
            (order subs))
    in
    passes := l :: !passes
  done;
  let med f = Q.median (Array.of_list (List.map f !passes)) in
  let parse = med (fun l -> l.parse) and prepass = med (fun l -> l.prepass) in
  let total =
    med (fun l -> l.parse +. l.sema +. l.translate +. l.lint +. l.stage +. l.prepass)
  in
  Printf.printf
    "traced passes %d; pre-pass share %.3f, parse share %.3f of a submission pass\n"
    (List.length !passes) (prepass /. total) (parse /. total);
  ( total,
    [
      m "slim.parse_ns_per_byte" "ns/B"
        (med (fun l -> 1e9 *. l.parse /. Float.of_int l.bytes));
      m "slim.sema_s" "s" (med (fun l -> l.sema));
      m "slim.translate_s" "s" (med (fun l -> l.translate));
      m "slim.words" "words" (med (fun l -> l.slim_words));
      m "sta.stage_s" "s" (med (fun l -> l.stage));
      m "analyze.prepass_s" "s" prepass;
      m "analyze.lint_s" "s" (med (fun l -> l.lint));
    ] )

type replay = {
  r_paths : int;
  r_successes : int;
  r_failed : int;
  r_cost : Welford.t;
  path_s : Float.Array.t;  (** wall time of each path call *)
  r_words : float;  (** minor words allocated by the replay loop *)
}

(* Replay path ids 0 .. paths-1 on this thread, timing every call into
   the path generator: [Campaign.make_runner] for probability queries,
   [Path.generate_compiled ~cost] for the priced one. *)
let replay ~seed w ~paths =
  let m = ok_or "load" (Slimsim.load_string w.source) in
  let net = Slimsim.network m in
  let enum x = Option.map snd (Slimsim_slim.Sema.enum_literal (Slimsim.tables m) x) in
  let compiled = Compiled.compile net in
  let run, cost_cell =
    if w.priced then
      match ok_or "query" (Pattern.parse_query w.query) with
      | Pattern.Cost_expect { cost_src; prob } ->
        let cv = ok_or "cost" (Pattern.resolve_cost ~enum net cost_src) in
        let goal, hold, horizon = ok_or "property" (Pattern.resolve ~enum net prob) in
        let q = Path.compile_query ?hold compiled ~goal in
        let scratch = Compiled.scratch compiled in
        let cfg = Path.default_config ~horizon in
        let cell = ref nan in
        ( (fun id ->
            Path.generate_compiled ~cost:(cv, cell) compiled scratch q cfg w.strategy
              (Rng.for_path ~seed ~path:id)),
          Some cell )
      | _ -> fail "the priced workload needs an E[...] query"
    else
      let goal, hold, horizon = ok_or "property" (Slimsim.parse_property m w.query) in
      ( Campaign.make_runner ~engine:`Compiled ~seed ?hold ~compiled
          (Path.default_config ~horizon) net ~goal ~strategy:w.strategy ~worker:0 (),
        None )
  in
  let path_s = Float.Array.make paths 0.0 in
  let successes = ref 0 and failed = ref 0 and cost = Welford.create () in
  let w0 = Gc.minor_words () in
  for id = 0 to paths - 1 do
    let t0 = now () in
    let r = run id in
    Float.Array.unsafe_set path_s id (now () -. t0);
    match r with
    | Ok (Path.Sat _) -> (
      incr successes;
      match cost_cell with Some c -> Welford.add cost !c | None -> ())
    | Ok (Path.Diverged _) | Error _ -> incr failed
    | Ok _ -> ()
  done;
  let r_words = Gc.minor_words () -. w0 in
  { r_paths = paths; r_successes = !successes; r_failed = !failed; r_cost = cost; path_s;
    r_words }

let replay_matches a r =
  r.r_successes = a.successes && r.r_failed = a.failed_paths
  && (a.cost_samples = 0
     || Welford.count r.r_cost = a.cost_samples
        && same_bits (Welford.mean r.r_cost) a.value)

(* Steps and firings per path from the path generator's own metric
   series (worker 0: the traced answer runs on one worker). *)
let series_per_path ~paths =
  let w = ("worker", "0") in
  let per x = x /. Float.of_int paths in
  let firings kind =
    Metrics.counter ~labels:[ ("kind", kind); w ] "slimsim_firings_total" ~help:""
    |> Metrics.counter_value |> Float.of_int |> per
  in
  let steps = Metrics.histogram ~labels:[ w ] "slimsim_path_steps" ~help:"" in
  ( per (Metrics.histogram_sum steps),
    firings "markov",
    firings "delay" )

let sampling_traced ~seed ~seconds w =
  let _, layers =
    layer_metrics ~budget:(setup_share *. seconds) ~min_passes:20 ~order:Fun.id
      [| sampling_submission w |]
  in
  (* The untraced answer is the reference every traced figure must
     reproduce.  Untraced and traced answers run in the order
     untraced, traced, traced, untraced, so a drift in machine speed
     cancels out of the overhead. *)
  let untraced, t_u1 = span "answer.untraced" (fun () -> answer_of ~seed w) in
  count_answer "answer" w.check untraced;
  let traced_answer () =
    Metrics.reset ();
    Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled false)
      (fun () -> span "answer.traced" (fun () -> answer_of ~seed w))
  in
  let t1, t_t1 = traced_answer () in
  let t2, t_t2 = traced_answer () in
  let steps, markov, delay = series_per_path ~paths:t2.paths in
  let u2, t_u2 = span "answer.untraced" (fun () -> answer_of ~seed w) in
  if not (List.for_all (same_verdicts untraced) [ t1; t2; u2 ]) then
    note_check "traced answer" (Error "verdicts differ from the untraced campaign");
  let overhead = (t_t1 +. t_t2 -. t_u1 -. t_u2) /. 2.0 in
  let r, _ =
    span "sim.replay"
      ~attrs:(fun r ->
        [ ("paths", Float.of_int r.r_paths);
          ("path_sum_s", Float.Array.fold_left ( +. ) 0.0 r.path_s);
          ("minor_words", r.r_words) ])
      (fun () -> replay ~seed w ~paths:untraced.paths)
  in
  if not (replay_matches untraced r) then
    note_check "replay" (Error "replayed verdicts differ from the untraced campaign");
  let path_sum = Float.Array.fold_left ( +. ) 0.0 r.path_s in
  let path_us = 1e6 *. Q.median (Float.Array.map_to_array Fun.id r.path_s) in
  (* Collection is what the campaign's wall time spends beyond the
     paths themselves; the first untraced answer gives the -j 1 wall. *)
  let collect = 1.0 -. (path_sum /. untraced.campaign_s) in
  let par_eff =
    if w.priced then 0.0
    else begin
      let a, _ = span "campaign.j2" (fun () -> answer_of ~seed ~workers:2 w) in
      if not (same_verdicts a untraced) then
        note_check "campaign" (Error "-j 2 verdicts differ from -j 1");
      path_sum /. (2.0 *. a.campaign_s)
    end
  in
  let collect, cost_collect = if w.priced then (0.0, collect) else (collect, 0.0) in
  let paths = Float.of_int r.r_paths in
  layers
  @ [
      m "sim.path_us" "us" path_us;
      m "sim.steps_per_path" "count" steps;
      m "sim.words_per_path" "words" (r.r_words /. paths);
      m "sim.words_per_step" "words" (r.r_words /. paths /. steps);
      m "sim.markov_firings_per_path" "count" markov;
      m "sim.delay_firings_per_path" "count" delay;
      m "campaign.collect_share" "ratio" collect;
      m "campaign.parallel_eff" "ratio" par_eff;
      m "cost_run.collect_share" "ratio" cost_collect;
      m "stats.paths" "count" paths;
      m "sim.failed_paths" "count" (Float.of_int r.r_failed);
      m "trace.overhead_s" "s" overhead;
    ]

let not_sampled =
  [ "sim.path_us", "us"; "sim.steps_per_path", "count"; "sim.words_per_path", "words";
    "sim.words_per_step", "words"; "sim.markov_firings_per_path", "count";
    "sim.delay_firings_per_path", "count"; "campaign.collect_share", "ratio";
    "campaign.parallel_eff", "ratio"; "cost_run.collect_share", "ratio";
    "stats.paths", "count"; "sim.failed_paths", "count" ]

let cold_traced ~seed ~seconds rows =
  let st = Random.State.make [| seed |] in
  (* Half the run traced, half untraced, interleaved pass by pass, so
     the difference is the tracing overhead. *)
  let untraced = ref [] in
  let total, layers =
    layer_metrics ~budget:seconds ~min_passes:3
      ~order:(fun subs ->
        let order = shuffle st subs in
        let _, t = timed (fun () -> submit_pass order) in
        untraced := t :: !untraced;
        order)
      rows
  in
  (* Layers with nothing to measure on a workload that samples nothing
     read 0. *)
  layers
  @ List.map (fun (n, u) -> m n u 0.0) not_sampled
  @ [ m "trace.overhead_s" "s" (total -. Q.median (Array.of_list !untraced)) ]

(* ------------------------------------------------------------------ *)

let workloads = [ "table1-sensor-filter"; "fig5-launcher"; "priced-queue"; "cold-certify" ]

let usage () =
  prerr_endline
    ("usage: e2e --workload NAME --seed N --seconds S --trace 0|1\n\
     \       e2e --reference fig5-launcher\n\
      workloads: " ^ String.concat ", " workloads);
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = List.assoc_opt k opts in
  let int_opt k = Option.bind (get k) int_of_string_opt in
  match
    (get "reference", get "workload", int_opt "seed", int_opt "seconds", get "trace")
  with
  | Some "fig5-launcher", None, _, _, _ -> print_launcher_reference ()
  | None, Some name, Some seed, Some seconds, Some (("0" | "1") as trace)
    when List.mem name workloads && seconds > 0 -> (
    let trace = trace = "1" and seconds = Float.of_int seconds in
    try
      let rows = cold_rows () in
      let metrics =
        if name = "cold-certify" then
          (if trace then cold_traced else cold_untraced) ~seed ~seconds rows
        else
          let w =
            match name with
            | "table1-sensor-filter" -> table1_sensor_filter ()
            | "fig5-launcher" -> fig5_launcher ()
            | _ -> priced_queue ()
          in
          let seed = Int64.of_int seed in
          if trace then sampling_traced ~seed ~seconds w
          else sampling_untraced ~seed ~seconds ~rows w
      in
      if trace then
        write_spans (Printf.sprintf "perfbench/out/%s-seed%d.spans.jsonl" name seed);
      emit metrics
    with Bench_error e | Sys_error e ->
      prerr_endline ("e2e: " ^ e);
      exit 1)
  | _ -> usage ()
