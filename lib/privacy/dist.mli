(** Finite discrete probability distributions.

    The unit of account of the paper's formal framework: states of a
    cache-management algorithm induce distributions over observable
    outputs, and privacy is a statement about pairs of such
    distributions (Definition IV.1). *)

type 'a t
(** Normalized: probabilities are positive and sum to 1 (up to floating
    rounding).  Equal outcomes are merged. *)

val of_list : ('a * float) list -> 'a t
(** Build from weighted outcomes; weights are normalized.  Outcomes
    with non-positive weight are dropped.
    @raise Invalid_argument if the total weight is not positive or any
    weight is negative. *)

val constant : 'a -> 'a t

val uniform_int : int -> int t
(** Uniform over [\[0, n)].
    @raise Invalid_argument if [n <= 0]. *)

val geometric_truncated : alpha:float -> domain:int -> int t
(** The paper's G̃(α, 0, K−1):
    [Pr(r) = (1−α)·α^r / (1−α^K)] on [\[0, K)].  [alpha = 1] is the
    uniform limit.
    @raise Invalid_argument unless [0 < alpha <= 1] and [domain > 0]. *)

val support : 'a t -> 'a list
(** Outcomes with positive probability, unspecified order. *)

val prob : 'a t -> 'a -> float
(** [0.] outside the support. *)

val size : 'a t -> int

val map : ('a -> 'b) -> 'a t -> 'b t
(** Pushforward; merges collisions. *)

val expect : 'a t -> f:('a -> float) -> float

val mean : int t -> float

val fold : 'a t -> init:'acc -> f:('acc -> 'a -> float -> 'acc) -> 'acc

val product : 'a t -> 'b t -> ('a * 'b) t
(** Joint law of two independent draws. *)

val self_product : 'a t -> n:int -> 'a list t
(** Joint law of [n] independent draws (support grows as [size^n]; keep
    [n] small).
    @raise Invalid_argument if [n <= 0]. *)

val total_variation : 'a t -> 'a t -> float
(** [1/2 Σ |p1 − p2|] over the union of supports. *)

val check_normalized : 'a t -> bool
(** Total mass within 1e-9 of 1 — used by property tests. *)
