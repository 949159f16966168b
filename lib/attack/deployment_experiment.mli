(** Where should the countermeasure run? (paper, footnote 6)

    "A sensible approach is to involve only consumer-facing routers,
    i.e., those that are most likely to be probed by Adv" — deferred by
    the paper to future work; measured here.

    In the {!Ndn.Network.edge_core} topology the adversary shares
    consumer-facing [edge1] with the victim, while an honest remote
    consumer benefits from the [core] cache.  Deploying the
    content-specific-delay countermeasure at different router sets
    trades attack resistance against remote-consumer latency:

    - edge-only: defeats the local adversary, keeps core hits fast;
    - core-only: the adversary probes the undefended edge cache and
      wins anyway, while remote consumers lose the core cache's latency
      benefit — the worst of both;
    - everywhere: safe but penalizes every honest consumer of private
      content by the full producer RTT. *)

type placement = No_defence | Edge_only | Core_only | Everywhere

val all_placements : placement list

type result = {
  placement : placement;
  attack_success : float;
      (** Distinguisher accuracy of the edge-sharing adversary against
          the victim's requests. *)
  remote_hit_latency_ms : float;
      (** Honest remote consumer fetching content already cached at the
          core. *)
  remote_miss_latency_ms : float;
      (** Same consumer fetching cold content (baseline). *)
}

val run : placement -> ?trials:int -> unit -> result
(** [trials] (default 40) independent contents per measurement. *)

val pp_result : Format.formatter -> result -> unit
