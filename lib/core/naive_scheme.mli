(** The non-private naïve scheme of Section VI — an attackable
    baseline, NOT a countermeasure.

    "The algorithm always generates a cache miss iff c_C ≤ k ... a
    cache hit indicates that at least k requests have been generated."
    Because the threshold k is public and deterministic, an adversary
    counting its own probes until the first hit recovers the *exact*
    number of prior requests ({!Attack.Counter_attack} implements the
    recovery). *)

type t

val create : k:int -> t
(** @raise Invalid_argument if [k < 0]. *)

val k : t -> int

val on_request : t -> Ndn.Name.t -> Random_cache.output
(** Deterministic threshold test: request number [c] (1-based) is a
    miss iff [c <= k] — with the same first-request bookkeeping as
    Algorithm 1. *)
