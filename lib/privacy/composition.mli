(** Composition of cache-privacy guarantees.

    The paper analyzes one content in isolation; a real adversary
    probes many.  If each content independently satisfies
    (ε, δ)-indistinguishability, what does the adversary learn from n
    of them jointly?  Standard differential-privacy composition applies
    because Definition IV.1 is the same indistinguishability notion:

    - {b basic}: (nε, nδ) always holds;
    - {b advanced} (Dwork–Rothblum–Vadhan): for any slack δ' > 0,
      (ε√(2n ln(1/δ')) + nε(eᵉ−1), nδ + δ') — sublinear in n for
      small ε;
    - {b exact}: for the finite output laws of Random-Cache we can also
      compute the n-fold product distributions and measure the joint δ
      directly (exponential in n; for small n only).

    The uniform scheme has ε = 0, so its joint guarantee is exactly
    (0, nδ): privacy degrades linearly in the number of probed private
    contents — a deployment sizing K should budget for the adversary's
    whole campaign, not a single content. *)

val basic : eps:float -> delta:float -> n:int -> float * float
(** [(n·eps, n·delta)].
    @raise Invalid_argument if [n <= 0] or arguments are negative. *)

val advanced :
  eps:float -> delta:float -> n:int -> delta_slack:float -> float * float
(** The advanced composition bound; requires [delta_slack > 0]. *)

val exact_joint_delta :
  k_dist:int Dist.t -> k:int -> probes:int -> eps:float -> n:int -> float
(** Exact joint leakage: the adversary probes [n] {e independent}
    contents, all in the same (S0 vs S1) situation; computes
    [min_delta] between the n-fold product output laws at total budget
    [n·eps], maximized over the per-content state gap [x <= k].  Keep
    [n <= 4] (support is [probes^n]). *)
