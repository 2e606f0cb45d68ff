(** The result of a priced query — expected cost and empirical cost
    distribution over reachability paths — and its rendering.

    For a query [E[c ; phi]] or [D[c ; phi]], a {!Campaign} created with
    [~cost] runs the classic verdict stream for [phi] and folds the
    exact value of the cost variable [c] at each sat path's goal
    crossing into a Welford accumulator (mean and CLT interval at the
    generator's [delta]) and a 64-bucket log2 histogram (the
    {!Slimsim_obs.Metrics.bucket_of} convention) backing the quantile
    table and the distribution rendering. *)

type result = {
  query : string;  (** canonical query string, as [Pattern.query_to_string] *)
  reach : Campaign.result;
      (** the underlying reachability estimate and verdict tallies *)
  cost_samples : int;  (** sat paths folded into the accumulator *)
  cost_mean : float;  (** [nan] when no path reached the goal *)
  cost_ci_low : float;
  cost_ci_high : float;
  cost_min : float;  (** [+inf] when no sat paths *)
  cost_max : float;  (** [-inf] when no sat paths *)
  cost_buckets : int array;
      (** per-bucket sat-path counts, {!Slimsim_obs.Metrics.bucket_of}
          convention ([Metrics.n_buckets] entries) *)
}

val of_campaign : delta:float -> Campaign.t -> Campaign.result -> result
(** The result of a priced campaign (one created with [~cost]) from its
    reachability result and cost accumulator; the cost interval is the
    CLT interval at [delta], the generator's.  Raises
    [Invalid_argument] on a classic campaign. *)

val pp_result : Format.formatter -> result -> unit
(** One-line summary: cost mean and interval, then the underlying
    reachability estimate with its tallies.  Includes wall-clock time —
    not suitable for golden tests; see {!pp_distribution}. *)

val pp_distribution : Format.formatter -> result -> unit
(** The empirical distribution: mean / interval / range, a quantile
    table (p10 … p99 as bucket upper bounds) and an ASCII histogram of
    the non-empty buckets.  A deterministic function of the result's
    counts — byte-identical across runs at a fixed seed. *)
