(** Bayesian quantification of what the probing adversary learns.

    (ε, δ)-indistinguishability bounds the worst case; this module
    computes the {e actual} information flow: the posterior over the
    hidden request count given an observed probing transcript, and the
    mutual information between router state and observation.  It is
    the quantitative bridge between Definition IV.3 and "how many bits
    does the adversary get?" *)

val posterior :
  k_dist:int Dist.t ->
  count_prior:int Dist.t ->
  probes:int ->
  observed_misses:int ->
  int Dist.t
(** [P(hidden count | m misses observed in t probes)] by Bayes' rule
    over the finite count support.
    @raise Invalid_argument if the observation has zero probability
    under every count in the prior's support. *)

val map_estimate : int Dist.t -> int
(** Maximum-a-posteriori count (ties: smallest). *)

val mutual_information :
  k_dist:int Dist.t -> count_prior:int Dist.t -> probes:int -> float
(** [I(count; observation)] in bits: the average leakage of one
    [probes]-long probing campaign about the hidden request count.
    0 = perfect privacy; [H(count)] = total disclosure. *)

val entropy : int Dist.t -> float
(** Shannon entropy in bits. *)
