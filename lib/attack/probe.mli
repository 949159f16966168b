(** Probing primitives shared by the attacks of Section III. *)

val measure :
  Ndn.Network.probe_setup ->
  from:Ndn.Node.t ->
  Ndn.Name.t ->
  float option
(** One probe: express an interest, run the simulation to completion,
    return the observed RTT ([None] on timeout). *)

val warm : Ndn.Network.probe_setup -> Ndn.Name.t -> unit
(** Make the honest user U fetch a content, populating every cache on
    U's path — in particular the shared router R. *)

val baseline_hit_rtt : Ndn.Network.probe_setup -> Ndn.Name.t -> float option
(** The adversary's d2 reference (Section III): request an existing
    content twice in succession; the second response is certainly
    served from R's cache.  Returns the second RTT. *)

type decision = Was_cached | Not_cached

val two_probe_decision :
  Ndn.Network.probe_setup ->
  target:Ndn.Name.t ->
  reference:Ndn.Name.t ->
  unit ->
  decision option
(** The full online attack: measure d1 for the target, establish the d2
    cache-hit baseline with a throwaway reference content, and decide
    [Was_cached] iff [d1 <= d2 + margin], the margin being 25% of d2.
    [None] if any probe times out.  Note this consumes the target: the
    probe itself caches it at R. *)
