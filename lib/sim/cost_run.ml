(* The result of a priced query E[c ; phi] / D[c ; phi] and its
   rendering.  The campaign itself — verdict stream, cost fold, stopping
   rule, checkpointing — is a {!Campaign} created with [~cost]; this
   module turns its reachability result and cost accumulator into the
   user-facing summary. *)

module Welford = Slimsim_stats.Welford
module Metrics = Slimsim_obs.Metrics

type result = {
  query : string;  (* canonical query string *)
  reach : Campaign.result;
      (* the underlying reachability estimate and tallies *)
  cost_samples : int;  (* sat paths folded into the accumulator *)
  cost_mean : float;  (* nan when no path reached the goal *)
  cost_ci_low : float;
  cost_ci_high : float;
  cost_min : float;  (* +inf / -inf when no sat paths *)
  cost_max : float;
  cost_buckets : int array;  (* Metrics.bucket_of convention *)
}

let of_campaign ~delta c reach =
  match Campaign.cost c with
  | None -> invalid_arg "Cost_run.of_campaign: not a priced campaign"
  | Some acc ->
    let open Supervisor.Checkpoint in
    let wf = Welford.restore ~n:acc.c_count ~mean:acc.c_mean ~m2:acc.c_m2 in
    let lo, hi = Welford.confidence_interval wf ~delta in
    {
      query = acc.c_query;
      reach;
      cost_samples = acc.c_count;
      cost_mean = (if acc.c_count = 0 then nan else acc.c_mean);
      cost_ci_low = lo;
      cost_ci_high = hi;
      cost_min = acc.c_min;
      cost_max = acc.c_max;
      cost_buckets = acc.c_buckets;
    }

(* ------------------------------------------------------------------ *)
(* Rendering.  The quantile table and histogram are deterministic
   functions of the bucket counts — no wall-clock, no float summaries
   beyond the accumulator — so a fixed-seed distribution rendering is
   reproducible byte for byte (the golden test pins one). *)

let quantile_levels = [| 0.10; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99 |]

(* The log2 buckets give quantiles as upper bounds: the q-quantile is
   at most the le bound of the first bucket whose cumulative count
   reaches ceil(q·n). *)
let quantile_bound buckets ~count q =
  let target =
    Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count)))
  in
  let n = Array.length buckets in
  let rec go i cum =
    if i >= n then Metrics.bucket_upper (n - 1)
    else
      let cum = cum + buckets.(i) in
      if cum >= target then Metrics.bucket_upper i else go (i + 1) cum
  in
  go 0 0

let bucket_label i =
  if i = 0 then "<= 0"
  else if i = Metrics.n_buckets - 1 then
    "> " ^ Metrics.bucket_upper (Metrics.n_buckets - 2)
  else
    Printf.sprintf "(%s, %s]"
      (Metrics.bucket_upper (i - 1))
      (Metrics.bucket_upper i)

let pp_distribution ppf r =
  if r.cost_samples = 0 then
    Fmt.pf ppf "cost distribution: no path reached the goal@."
  else begin
    Fmt.pf ppf "cost distribution (%d sat paths):@." r.cost_samples;
    Fmt.pf ppf "  mean %.6g  ci [%.6g, %.6g]  min %.6g  max %.6g@."
      r.cost_mean r.cost_ci_low r.cost_ci_high r.cost_min r.cost_max;
    Fmt.pf ppf "  quantiles:";
    Array.iter
      (fun q ->
        Fmt.pf ppf "  p%g <= %s" (100.0 *. q)
          (quantile_bound r.cost_buckets ~count:r.cost_samples q))
      quantile_levels;
    Fmt.pf ppf "@.";
    let peak = Array.fold_left Stdlib.max 1 r.cost_buckets in
    Array.iteri
      (fun i n ->
        if n > 0 then
          Fmt.pf ppf "  %-20s %8d  %s@." (bucket_label i) n
            (String.make (Stdlib.max 1 (n * 40 / peak)) '#'))
      r.cost_buckets
  end

let pp_result ppf r =
  let c = r.reach in
  if r.cost_samples = 0 then
    Fmt.pf ppf
      "E[cost] undefined: no sat paths  (p = %.6f  [%.6f, %.6f], %d paths, \
       %.2fs)"
      c.Campaign.probability c.Campaign.ci_low c.Campaign.ci_high
      c.Campaign.paths c.Campaign.wall_seconds
  else
    Fmt.pf ppf
      "E[cost] = %.6g  [%.6g, %.6g]  (%d sat paths; p = %.6f  [%.6f, %.6f], \
       %d paths, %.2fs)"
      r.cost_mean r.cost_ci_low r.cost_ci_high r.cost_samples
      c.Campaign.probability c.Campaign.ci_low c.Campaign.ci_high
      c.Campaign.paths c.Campaign.wall_seconds;
  if c.Campaign.deadlock_paths > 0 then
    Fmt.pf ppf " (%d dead/timelocked)" c.Campaign.deadlock_paths;
  if c.Campaign.violated_paths > 0 then
    Fmt.pf ppf " (%d hold-violated)" c.Campaign.violated_paths;
  if c.Campaign.errors > 0 then Fmt.pf ppf " (%d errored)" c.Campaign.errors;
  if c.Campaign.diverged_paths > 0 then
    Fmt.pf ppf " (%d diverged, %d dropped)" c.Campaign.diverged_paths
      c.Campaign.dropped_paths;
  if c.Campaign.stopped = Campaign.Interrupted then Fmt.pf ppf " [interrupted]"
