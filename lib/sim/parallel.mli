(** Deterministic fan-out of independent trials over OCaml 5 domains.

    Every evaluation in the paper is an ensemble of independent trials
    — Figure 3's RTT campaigns, Figure 5's trace replays, the
    Monte-Carlo checks of Theorems VI.1-VI.4.  This module runs such
    ensembles on a fixed-size pool of domains while keeping the results
    {e bit-identical} to a sequential run:

    - randomness is derived {e before} dispatch: a root generator seeded
      from [seed] is {!Rng.split} once per trial, in trial order, so
      trial [i] sees the same stream no matter which domain executes it
      or in which order trials complete;
    - results land in a per-trial slot and are combined in trial order,
      so merge order is scheduling-independent.

    Consequently [run ~jobs:1] and [run ~jobs:64] produce identical
    output, and a fixed [seed] reproduces a run exactly — the property
    the determinism regression tests in [test/test_parallel.ml] pin
    down.  Exceptions raised by a trial are re-raised in the caller
    after the pool drains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: one worker per hardware
    thread the runtime believes is available (at least 1). *)

val check_domains : jobs:int -> shards:int -> (unit, string) result
(** Guard against multiplying the two fan-out axes past the hardware:
    [jobs] trial workers each running a [shards]-domain {!Sim.Shard}
    network occupy [jobs * shards] domains at once, and the shard
    workers busy-wait at window barriers, so oversubscribing collapses
    throughput instead of merely time-slicing.  Returns [Error msg]
    when the product exceeds [max (default_jobs ()) (max jobs shards)]
    — either axis alone may reach the hardware count (or exceed it when
    the caller explicitly asked for that axis), but not both
    multiplied.  Raises [Invalid_argument] if either count is [< 1]. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] computes [|f 0; ...; f (n-1)|] on a pool of at most
    [jobs] domains ([jobs] defaults to {!default_jobs}; values [< 1]
    and [> n] are clamped).  [f] must be safe to call from any domain
    and must not share mutable state across calls.  With [jobs = 1]
    (or [n <= 1]) everything runs in the calling domain. *)

val run :
  ?jobs:int -> seed:int -> trials:int -> (trial:int -> rng:Rng.t -> 'a) ->
  'a array
(** [run ~jobs ~seed ~trials f] executes [f ~trial ~rng] for each
    [trial] in [\[0, trials)], handing trial [i] the [i]-th generator
    split off a root seeded with [seed].  The result array is in trial
    order and is identical for any [jobs]. *)

val run_reduce :
  ?jobs:int -> seed:int -> trials:int -> merge:('b -> 'a -> 'b) -> init:'b ->
  (trial:int -> rng:Rng.t -> 'a) -> 'b
(** {!run} followed by [Array.fold_left merge init]: the fold runs in
    the calling domain, left-to-right in trial order, so
    non-commutative merges (histograms, formatted rows, Chan-merged
    moments) are still deterministic. *)
