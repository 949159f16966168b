(** Scope-limited probing (Section III).

    An interest with [scope = 2] may traverse at most two NDN entities
    including the source, so if the adversary receives content at all,
    it {e must} have come from its first-hop router's cache — no timing
    needed.  Routers may legitimately ignore the scope field, which
    turns the answer into [Inconclusive]. *)

type verdict =
  | Cached  (** Content returned: it was in the first-hop cache. *)
  | Not_cached  (** Timeout: not in the first-hop cache (or dropped). *)

val probe : Ndn.Network.probe_setup -> Ndn.Name.t -> verdict
(** Issue a scope-2 interest from the adversary and wait it out (500 ms).
    Deterministic — no distinguisher involved. *)

val census :
  Ndn.Network.probe_setup -> Ndn.Name.t list -> (Ndn.Name.t * verdict) list
(** Probe a list of names in order — the "oracle" enumeration of a
    neighbour's recent traffic. *)
