(** Privacy-aware NDN router: wires the paper's countermeasures into a
    live {!Ndn.Node} forwarder via its cache-response strategy.

    This is the network-level realization of the policies: hidden hits
    become artificially delayed responses (served from the cache —
    bandwidth is preserved), private misses can be padded, marking
    rules combine producer and consumer privacy bits, and Algorithm 1
    state is keyed by content group. *)

type countermeasure =
  | No_countermeasure
      (** Plain NDN (the attackable baseline). *)
  | Delay_private of Delay.t
      (** Section V-B: every hit on private content is delayed per the
          given delay policy; with {!Delay.Constant} the miss path is
          padded to the same total γ. *)
  | Random_cache_mimic of { kdist : Kdist.t; grouping : Grouping.t }
      (** Section VI: Algorithm 1 decides hit/miss; a "miss" decision
          on cached private content is served from the cache after the
          recorded first-fetch delay γ_C, so it is indistinguishable
          from a real miss in timing. *)

type stats = {
  public_hits : int;  (** Cache hits served immediately (public). *)
  private_hits_served : int;  (** Private hits Algorithm 1 revealed. *)
  private_hits_hidden : int;  (** Private hits disguised as misses. *)
  misses_padded : int;  (** Miss responses padded to the target delay. *)
}

type t

val attach :
  ?tracer:Sim.Trace.t -> Ndn.Node.t -> rng:Sim.Rng.t -> countermeasure -> t
(** Install the countermeasure on a node (replacing its strategy).
    [tracer] (default {!Sim.Trace.disabled}) feeds the Algorithm 1
    instance, which then emits [rc.draw]/[rc.fake_miss]/[rc.hit]
    records labelled with the node and timestamped by its engine.

    Hidden hits mimic misses against {e every} observation channel:
    timing (artificial delay), and the scope=2 oracle — a scope-limited
    interest for a hidden hit takes the true miss path, so it dies at
    the scope boundary exactly as if the content were absent. *)

val stats : t -> stats
