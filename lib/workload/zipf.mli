(** Zipf(ian) popularity sampling.

    Web-object popularity is classically Zipf-like; the IRCache proxy
    trace the paper replays has this shape, which is what makes small
    LRU caches achieve double-digit hit rates. *)

type t

val create : n:int -> s:float -> t
(** Popularity law over ranks [1..n] with exponent [s]:
    [Pr(rank = r) ∝ r^{-s}].  Precomputes the CDF (O(n) memory,
    O(log n) sampling).  The harmonic normalizer and CDF table are
    memoized per [(n, s)] in a per-domain cache, so creating the same
    law for each of 10k aggregate edge consumers costs the O(n) sum
    once, not 10k times; the shared table is immutable.
    @raise Invalid_argument if [n <= 0] or [s < 0.]. *)

val sample : t -> Sim.Rng.t -> int
(** A rank in [1..n]. *)

val prob : t -> int -> float
(** Probability of a rank.
    @raise Invalid_argument if the rank is outside [1..n]. *)

val head_mass : t -> int -> float
(** Total probability of ranks [1..k] — the best possible hit rate of
    a size-[k] cache under independent requests. *)
