(** Parameter sweeps and tabulation for the Figure 5 reproduction. *)

type row = {
  policy_label : string;
  cache_capacity : int;  (** 0 = unbounded. *)
  private_fraction : float;
  outcome : Replay.outcome;
}

val sweep :
  Trace.t ->
  cache_sizes:int list ->
  policies:Core.Policy.kind list ->
  ?private_fraction:float ->
  ?jobs:int ->
  unit ->
  row list
(** Figure 5(a): one replay per (policy, cache size); per-content
    private marking at [private_fraction] (default 0.2), by-content
    grouping, replay seed 99.  The grid is evaluated on [jobs] domains
    via {!Sim.Parallel} (each cell is deterministic in its seed); the
    returned rows are in grid order, so the output is identical for
    any [jobs]. *)

val sweep_private_fraction :
  Trace.t ->
  cache_sizes:int list ->
  policy:Core.Policy.kind ->
  fractions:float list ->
  ?jobs:int ->
  unit ->
  row list
(** Figure 5(b): one policy, varying the private fraction.  Parallel
    and deterministic as in {!sweep}. *)

(** {2 Mergeable multi-trial aggregates}

    A commutative-monoid summary of replay outcomes, so trial ensembles
    computed on different domains (or machines) can be combined without
    re-touching the raw outcomes.  [merge (aggregate xs) (aggregate ys)]
    equals [aggregate (xs @ ys)] exactly on the integer counters and to
    floating-point accuracy (Chan's parallel update) on the per-trial
    hit-rate moments. *)

type agg = {
  trials : int;
  requests : int;
  observable_hits : int;
  real_hits : int;
  hidden_hits : int;
  private_requests : int;
  agg_evictions : int;
  hit_rate_stats : Sim.Stats.t;
      (** Distribution of per-trial observable hit rates. *)
}

val agg_empty : unit -> agg
(** Identity element of {!merge}. *)

val agg_of_outcome : Replay.outcome -> agg
(** Single-trial aggregate. *)

val merge : agg -> agg -> agg
(** Combine two disjoint trial ensembles; neither input is mutated. *)

val replay_trials :
  Trace.t -> Replay.config -> trials:int -> ?jobs:int -> unit -> agg
(** Replay [trials] independent trials of [config] (trial [i] uses seed
    [config.seed + i]) on [jobs] domains and merge the outcomes in
    trial order.  Identical result for any [jobs]. *)

val pp_agg : Format.formatter -> agg -> unit

val pp_table :
  series_of:(row -> string) -> Format.formatter -> row list -> unit
(** Render rows as a cache-size × series table of observable hit rates
    (percent), with series picked by [series_of] (policy label for
    5(a), private fraction for 5(b)). *)

val cache_size_label : int -> string
(** ["Inf"] for 0, the number otherwise. *)
