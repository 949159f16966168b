(** A seeded interest-flooding adversary.

    Floods a chosen forwarder with interests for {e unsatisfiable}
    names — each one unique, so neither interest collapsing nor any
    Content Store absorbs it, and no producer ever answers.  Every such
    interest pins a PIT entry at each router on its path for the full
    entry lifetime: the classic PIT-exhaustion attack that motivates
    finite {!Ndn.Pit} capacities, admission policies and NACKs.

    Aim the flood by routing: install FIB routes for the flood prefix
    from the attached node toward the victim router(s) and {e no}
    producer for that prefix.  Interests then traverse (and load) the
    victims and die of no-route or PIT-lifetime expiry beyond them.

    Determinism: Poisson arrivals drawn from the caller's {!Sim.Rng.t};
    names are sequence-numbered, consuming no randomness.  Arrivals are
    scheduled through {!Ndn.Node.schedule_app}, so a flood inside a
    [Sim.Shard] partition stays shard-count-invariant, and it composes
    freely with {!Aggregate} background traffic and {!Sim.Fault}
    schedules. *)

type config = {
  rate_per_ms : float;  (** Mean interest injection rate. *)
  scope : int option;  (** Optional interest scope (hop bound). *)
  timeout_ms : float option;
      (** Per-interest expression timeout at the attacking host
          (default: the host PIT's lifetime). *)
}

val default : config
(** 1 interest/ms, no scope, default timeout. *)

type t

val attach :
  config ->
  node:Ndn.Node.t ->
  prefix:Ndn.Name.t ->
  rng:Sim.Rng.t ->
  ?until:float ->
  unit ->
  t
(** Start flooding [prefix/0], [prefix/1], … from [node].  [until]
    (virtual ms) stops injection; without it the flood never drains, so
    bound the run. *)

val interests_issued : t -> int

val nacks_received : t -> int
(** NACKs that answered flood interests (the plane pushing back). *)

val timeouts : t -> int
(** Flood interests that expired unanswered at the attacking host. *)
