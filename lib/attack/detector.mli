(** Hit/miss distinguisher from timing samples.

    The adversary of Section III reduces to a binary classifier over
    round-trip times: given reference distributions of "served from the
    probed cache" and "served from farther away", classify a fresh
    observation.  For the unimodal, ordered delay distributions of the
    paper a threshold test is Bayes-optimal; the threshold is learned
    by maximizing empirical accuracy over the training samples. *)

type t

val train : hit_samples:float array -> miss_samples:float array -> t
(** Learn the optimal decision threshold.  Hits are expected to be
    faster than misses; the classifier still works (by flipping) if
    they are not.
    @raise Invalid_argument if either sample set is empty. *)

type verdict = Hit | Miss

val classify : t -> float -> verdict

val threshold : t -> float
(** The learned decision boundary (milliseconds). *)

val training_accuracy : t -> float

val evaluate : t -> hit_samples:float array -> miss_samples:float array -> float
(** Balanced accuracy on held-out samples:
    [(P(correct | hit) + P(correct | miss)) / 2] — the paper's
    "probability of determining whether C is retrieved from R's
    cache". *)

val success_rate :
  hit_samples:float array -> miss_samples:float array -> unit -> float
(** One-call experiment: split each sample set (first half for
    training), train, and report held-out balanced accuracy. *)
