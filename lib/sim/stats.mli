(** Streaming and batch summary statistics. *)

type t
(** A mutable accumulator using Welford's online algorithm, so variance
    is numerically stable even for millions of samples. *)

val create : unit -> t

val add : t -> float -> unit

val add_list : t -> float list -> unit

val count : t -> int

val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

val stddev : t -> float

val min : t -> float
(** [infinity] when empty. *)

val max : t -> float
(** [neg_infinity] when empty. *)

val total : t -> float

val merge : t -> t -> t
(** Combine two accumulators (parallel Welford merge). *)

(** Batch helpers over float arrays (these sort a copy; O(n log n)). *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation
    between order statistics.
    @raise Invalid_argument on an empty array or [p] out of range. *)

val median : float array -> float

val mean_of : float array -> float
