(** Fixed-width histograms and empirical PDFs.

    Used to regenerate the probability-density plots of the paper's
    Figure 3 (cache-hit vs. cache-miss delay distributions) and to feed
    the Bayes-optimal distinguisher in [Attack.Detector]. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Histogram over [\[lo, hi)] with [bins] equal-width bins.  Samples
    outside the range are clamped into the first/last bin (they are
    still real observations; clamping keeps total mass 1).
    @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)

val of_samples : ?bins:int -> float array -> t
(** Histogram spanning the sample range ([bins] defaults to 40).
    @raise Invalid_argument on an empty array. *)

val add : t -> float -> unit

val count : t -> int

val bins : t -> int

val bin_edges : t -> (float * float) array
(** Per-bin [(left, right)] edges. *)

val counts : t -> int array

val pdf : t -> float array
(** Empirical density: bin probability divided by bin width, so the
    curve integrates to 1 (matching the paper's PDF plots). *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram whose bins are the element-wise
    sums of [a] and [b] — the counts obtained by adding both sample
    sets into one histogram.  Both inputs are left untouched, so
    parallel trial shards can be folded in any grouping.
    @raise Invalid_argument if layouts differ. *)

val merge_into : into:t -> t -> unit
(** In-place variant of {!merge}: accumulate [b]'s counts into [into].
    @raise Invalid_argument if layouts differ. *)

val equal : t -> t -> bool
(** Same layout and identical per-bin counts. *)

val pp_two : labels:string * string -> Format.formatter -> t * t -> unit
(** Render two histograms (e.g. hit vs. miss) over a shared bin layout,
    30 columns per bar; both must have the same [lo], [hi], [bins].
    @raise Invalid_argument if layouts differ. *)

val overlap : t -> t -> float
(** Bhattacharyya-style overlap: sum over bins of
    [min (p1 bin) (p2 bin)] — the Bayes error (times 2) of an optimal
    single-sample distinguisher restricted to this binning.  Both
    histograms must share a layout.
    @raise Invalid_argument if layouts differ. *)
