(** One-way link latency models.

    The paper's timing attacks work because cache-hit and cache-miss
    paths have distinguishable round-trip-time distributions; the
    countermeasure analysis depends on how much those distributions
    overlap.  These models let topologies reproduce the LAN / WAN /
    local-host RTT histograms of the paper's Figure 3. *)

type t =
  | Constant of float
      (** Fixed delay in milliseconds. *)
  | Uniform of { lo : float; hi : float }
      (** Uniform jitter on [\[lo, hi\]]. *)
  | Normal of { mean : float; stddev : float; min : float }
      (** Gaussian jitter truncated below at [min] (latencies cannot be
          negative or below the propagation floor). *)
  | Shifted_exponential of { shift : float; rate : float }
      (** [shift + Exp(rate)]: a propagation floor plus queueing tail —
          the classic shape of measured Internet one-way delays. *)
  | Sum of t list
      (** Independent sum, e.g. propagation + queueing components. *)

val sample : t -> Rng.t -> float
(** Draw one latency in milliseconds.  Always [>= 0.]. *)

val lower_bound : t -> float
(** Greatest lower bound of {!sample}: no draw is ever below it, and it
    is never negative.  {!Sim.Shard} computes its conservative
    lookahead window as the minimum [lower_bound] over cross-shard
    links, so a model whose bound is [0.] (e.g. [Constant 0.]) cannot
    cross shards. *)

val mean : t -> float
(** Analytic mean of the model (truncation of [Normal] is ignored: with
    sensible parameters its effect is negligible, and the value is used
    only for reporting). *)

(* Convenience constructors for the scenarios in the paper's testbed. *)

val fast_ethernet : t
(** Sub-millisecond switched-LAN hop. *)
