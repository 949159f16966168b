(** Closed-form privacy and utility of the paper's two Random-Cache
    instantiations (Theorems VI.1–VI.4), plus the parameter solvers
    used to regenerate Figure 4.

    {b Reproduction note.}  The paper's two utility theorems silently
    use different miss-counting conventions:

    - Theorem VI.2 (uniform) counts [min(k_C, c)] misses, ignoring the
      unconditional first-request miss of Algorithm 1, line 8;
    - Theorem VI.4 (exponential) counts [min(k_C + 1, c)], which is
      exactly what Algorithm 1 produces.

    We therefore expose, for each scheme, the closed form {e as
    printed in the paper} ([expected_misses_paper], used to regenerate
    Figure 4 faithfully) and the {e exact} expectation of Algorithm 1
    computed from the threshold pmf ([expected_misses_exact], validated
    against Monte-Carlo in the test suite).  The two differ by at most
    one miss.  EXPERIMENTS.md quantifies the discrepancy. *)

val utility_of_misses : c:int -> misses:float -> float
(** [u(c) = 1 − E(M(c))/c] (Definition VI.1 via the miss form). *)

val exact_expected_misses : k_dist:int Dist.t -> c:int -> float
(** Ground truth for any Random-Cache instantiation: [E min(k_C+1, c)].
    @raise Invalid_argument if [c <= 0]. *)

module Uniform : sig
  (** Uniform-Random-Cache: K = U(0, K). *)

  val delta : k:int -> domain:int -> float
  (** Theorem VI.1: [2k/K] (a mass of "bad" outputs across both
      distributions; can exceed 1 when [K < 2k]).

      {b Reproduction note.}  The bound is exact for probing sequences
      of length [t >= K]; for shorter sequences the all-miss output
      aggregates several thresholds and acquires a probability ratio
      above [e^0], so (k, 0, 2k/K)-privacy can fail — see the pinned
      regression test and EXPERIMENTS.md. *)

  val domain_for_delta : k:int -> delta:float -> int
  (** Smallest K with [2k/K <= delta].
      @raise Invalid_argument if [delta <= 0.] or [k <= 0]. *)

  val expected_misses_paper : c:int -> domain:int -> float
  (** Theorem VI.2 as printed: [c(1 − (c+1)/2K)] for [c < K], else
      [K/2]. *)

  val expected_misses_exact : c:int -> domain:int -> float
  (** Algorithm 1 ground truth: [c(1 − (c−1)/2K)] for [c <= K], else
      [(K+1)/2]. *)

  val utility_paper : c:int -> domain:int -> float

  val utility_exact : c:int -> domain:int -> float

  val k_dist : domain:int -> int Dist.t
end

module Exponential : sig
  (** Exponential-Random-Cache: K = G̃(α, 0, K−1). *)

  val epsilon : k:int -> alpha:float -> float
  (** Theorem VI.3: [−k ln α]. *)

  val alpha_for_epsilon : k:int -> eps:float -> float
  (** Inverse: [exp(−eps/k)]. *)

  val delta : k:int -> alpha:float -> domain:int -> float
  (** Theorem VI.3: [(1 − α^k + α^{K−k} − α^K) / (1 − α^K)]. *)

  val delta_limit : k:int -> alpha:float -> float
  (** [lim K→∞ delta = 1 − α^k] — the smallest achievable δ for a
      given α (paper, "Comparison of Proposed Schemes"). *)

  val domain_for_delta : k:int -> alpha:float -> delta:float -> int option
  (** Smallest K achieving the target δ; [None] when
      [delta < delta_limit] (infeasible at this α). *)

  val expected_misses_paper : c:int -> alpha:float -> domain:int -> float
  (** Theorem VI.4 as printed. *)

  val expected_misses_exact : c:int -> alpha:float -> domain:int -> float
  (** Algorithm 1 ground truth via the truncated-geometric pmf. *)

  val expected_misses_paper_unbounded : c:int -> alpha:float -> float
  (** K = ∞ limit of the printed form: [(1 − α^c)/(1 − α)] — used for
      Figure 4(b), where ε = −ln(1−δ) forces K → ∞. *)

  val utility_paper : c:int -> alpha:float -> domain:int -> float

  val utility_exact : c:int -> alpha:float -> domain:int -> float

  val utility_paper_unbounded : c:int -> alpha:float -> float

  val k_dist : alpha:float -> domain:int -> int Dist.t
end
