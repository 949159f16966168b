(** Temporal-locality workload generation (LRU-stack model).

    The synthetic {!Ircache} generator draws requests i.i.d., which
    understates temporal locality: real proxy traffic re-requests
    *recently seen* objects far more often than stationary popularity
    predicts, and LRU caches exploit exactly that.  The classical
    LRU-stack model captures it: each request either introduces a fresh
    object or references the object at stack distance d, where d
    follows a heavy-tailed law; the referenced object moves to the top.

    Used by the ablation bench to show how the Figure 5 curves shift
    when locality is modelled explicitly. *)

type config = {
  requests : int;
  users : int;
  fresh_fraction : float;
      (** Probability a request introduces a brand-new object. *)
  depth_exponent : float;
      (** Stack-distance law: [Pr(d) ∝ d^{-s}] over the reachable
          stack; larger = stronger locality. *)
  max_depth : int;
      (** Truncation of the stack-distance law (bounds per-request
          cost). *)
  duration_s : float;
  seed : int;
}

val default : config
(** 200k requests, 185 users, 35% fresh, s = 1.2, depth ≤ 4096, 24 h. *)

val generate : config -> Trace.t
(** @raise Invalid_argument on non-positive sizes or fractions outside
    [\[0, 1\]]. *)
