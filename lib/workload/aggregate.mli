(** Aggregate edge consumers: one entity standing for a population.

    Simulating a million individual consumers as engine entities is
    pointless for cache-privacy questions — caches see the {e merged}
    arrival process at each edge router, not the per-user streams.  An
    [Aggregate.t] is that merged process: a single non-homogeneous
    Poisson request stream whose rate is [users ×
    req_per_user_per_hour], modulated by a diurnal sine, with object
    ranks drawn Zipf — statistically representing 10k–1M users with
    zero per-user state.

    Determinism: every random draw (arrival thinning, Zipf rank) comes
    from the caller-supplied {!Sim.Rng.t}.  Pre-split one stream per
    edge router and runs are byte-identical for any [--jobs], the same
    discipline as {!Sim.Parallel}. *)

type config = {
  users : int;  (** Population size this entity stands for. *)
  req_per_user_per_hour : float;
  catalog : int;  (** Number of distinct objects (Zipf ranks 1..catalog). *)
  zipf_s : float;  (** Popularity exponent. *)
  diurnal_amplitude : float;
      (** [A] in [\[0, 1\]]: the request rate is
          [base × (1 + A·sin(2π(t − phase)/period))].  [0] disables
          modulation. *)
  diurnal_period_ms : float;
  diurnal_phase_ms : float;
  consumer_private : bool;  (** Mark requests private (Section V-B). *)
  max_retries : int;  (** Retransmissions per fetch (see {!Consumer}). *)
  record_ranks : bool;
      (** Keep a per-rank issue histogram (O(catalog) memory) — used by
          the statistical tests; off for 10k-router sweeps. *)
}

val default : config
(** 10_000 users, 6 requests/user/hour, catalog 10_000 at [s = 0.85]
    (the IRCache-like regime), amplitude 0.5 over a 24 h period, public
    interests, 2 retries, no rank recording. *)

type t

val attach :
  config ->
  node:Ndn.Node.t ->
  prefix:Ndn.Name.t ->
  rng:Sim.Rng.t ->
  ?until:float ->
  unit ->
  t
(** Start the stream: schedules the first candidate arrival on
    [node]'s engine — through {!Ndn.Node.schedule_app}, so the stream
    is shard-count-invariant when the node lives in a [Sim.Shard]
    partition — and thereafter self-perpetuates via Ogata thinning
    (candidates at the peak rate, accepted with probability
    [rate(t)/peak]) — so the sequence of RNG draws is independent of
    how many candidates are rejected, and two configs differing only
    in amplitude consume identical randomness.  Each accepted arrival
    fetches [prefix/RANK] from [node] through {!Ndn.Consumer.fetch}
    with one shared RTT estimator.  [until] (virtual ms) stops the
    stream — without it the stream never drains, so bound the run via
    [Sim.Engine.run ~until]. *)

val requests_issued : t -> int

val responses : t -> int

val timeouts : t -> int
(** Fetches that exhausted their retries. *)

val rank_counts : t -> int array option
(** With [record_ranks]: index [r-1] counts issues of rank [r]. *)
