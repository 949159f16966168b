(** Popularity estimation through Random-Cache.

    Beyond the binary "was it requested?" question, an adversary may
    want the request {e count} (local popularity) of a content.
    Against the naive scheme the count is recovered exactly
    ({!Counter_attack}); against Random-Cache the best the adversary
    can do is Bayesian inference over the random threshold — this
    module mounts that optimal attack, so the measured estimation error
    is a tight empirical reading of the scheme's leakage. *)

type result = {
  trials : int;
  exact_rate : float;  (** Fraction of trials with MAP estimate = truth. *)
  mean_abs_error : float;
  mean_posterior_entropy_bits : float;
      (** Residual uncertainty after the attack. *)
}

val run :
  kdist:Core.Kdist.t ->
  true_count:int ->
  max_count:int ->
  ?trials:int ->
  unit ->
  result
(** Monte-Carlo: per trial, a fresh Random-Cache instance receives
    [true_count] honest requests; the adversary probes enough times to
    saturate the threshold, computes the posterior, and answers
    its MAP estimate. *)

val information_leak_bits :
  kdist:Core.Kdist.t -> max_count:int -> probes:int -> float
(** Exact expected leakage (mutual information) of the campaign — what
    {!result.mean_posterior_entropy_bits} converges to being subtracted
    from the prior entropy. *)
