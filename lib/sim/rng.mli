(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    generator so that experiments are reproducible given a seed.  The
    implementation is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a
    64-bit counter-based generator with excellent statistical quality,
    trivially splittable, and independent of the OCaml stdlib [Random]
    state (so library users cannot perturb experiments by calling
    [Random.self_init]). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator positioned at the same point in
    the stream as [t]; advancing one does not affect the other. *)

val split : t -> t
(** [split t] deterministically derives a new generator whose stream is
    (statistically) independent of the remainder of [t]'s stream.
    Advances [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so the result is exactly uniform.
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [\[lo, hi\]].
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate via the Box–Muller transform (the spare deviate is
    cached in the generator state). *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (mean [1. /. rate]).
    @raise Invalid_argument if [rate <= 0.]. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] counts failures before the first success of a
    Bernoulli([p]) sequence: [Pr(X = k) = (1-p) ^ k * p], [k >= 0].
    @raise Invalid_argument unless [0. < p <= 1.]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t n k] draws [k] distinct integers from
    [\[0, n)], in increasing order.
    @raise Invalid_argument if [k < 0 || k > n]. *)
