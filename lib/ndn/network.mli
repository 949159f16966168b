(** Topology construction and the paper's experimental setups.

    A network owns the simulation engine and RNG, wires {!Node}s with
    latency/loss links, and provides the four measurement topologies of
    the paper's Figure 3.  Link and processing latencies are calibrated
    so the simulated RTT histograms span the same ranges as the paper's
    testbed measurements (see DESIGN.md §5). *)

type t

val create : ?seed:int -> ?tracer:Sim.Trace.t -> ?shards:int -> unit -> t
(** Fresh network with a deterministic RNG ([seed] defaults to 42),
    running on a {!Sim.Shard} partition of [shards] (default 1)
    shard-local engines.  [tracer] (default {!Sim.Trace.disabled})
    receives the records of every node created via {!add_node} and of
    the links built by {!connect}: enabling it makes the whole stack
    emit — CS operations, interest/data hops and per-link latency draws
    ([link.tx] records carry the sampled [delay_ms]).  Records reach
    [tracer] in the partition's stitched order by the end of each
    {!run}; one emitted between runs (a driver's own
    {!Node.express_interest}, say) arrives with the next run's.

    Nodes are assigned to shards by a platform-independent hash of
    their label, every event is keyed with a shard-count-invariant
    [(node, counter)] pair, link directions draw from per-direction
    split RNGs, and {!run} advances the partition in conservative
    lookahead windows — so traces, counters and measurements are
    byte-identical for {e any} shard count, with one exception:
    [engine.step] records (per-engine queue depth and count) are
    emitted only at [shards = 1], where the one engine sees every
    event.  [engine t] is shard 0's engine; drivers must schedule
    through {!Node.schedule_app} rather than directly on an engine.
    @raise Invalid_argument if [shards < 1]. *)

val set_stall_watchdog :
  t -> ?stall_ms:float -> clock_ms:(unit -> float) -> unit -> unit
(** Arm {!Sim.Shard.set_watchdog} on the underlying partition: a shard
    stalled at a window barrier for [stall_ms] wall-clock ms (default
    30 s, measured by the injected [clock_ms]) raises a diagnostic
    [Failure] naming the stuck shard and the pending queue depths.
    Never fires at [shards = 1], which runs without barriers. *)

val events_processed : t -> int
(** Total events fired across all shard engines. *)

val windows : t -> int
(** {!Sim.Shard.windows} of the underlying partition: the lookahead
    window rounds of the last {!run}, [0] at [shards = 1]. *)

val engine : t -> Sim.Engine.t

val rng : t -> Sim.Rng.t

val now : t -> float

val add_node :
  t ->
  ?cs_capacity:int ->
  ?cs_policy:Eviction.t ->
  ?pit_lifetime_ms:float ->
  ?forwarding_delay:Sim.Latency.t ->
  ?honor_scope:bool ->
  ?caching:bool ->
  string ->
  Node.t
(** Create a node managed by this network's engine.  [pit_lifetime_ms]
    (default 4000) is the node's PIT entry lifetime and default
    interest timeout — generated topologies scale it with network
    diameter so deep hierarchies do not time interests out mid-path. *)

val connect :
  t ->
  ?loss:float ->
  ?latency_ba:Sim.Latency.t ->
  latency:Sim.Latency.t ->
  Node.t ->
  Node.t ->
  int * int
(** [connect t a b ~latency] joins two nodes with a bidirectional link
    and returns [(face_of_a, face_of_b)].  [latency] is the a→b model;
    [latency_ba] defaults to it.  [loss] (default 0) drops each packet
    independently in either direction. *)

val route : t -> Node.t -> prefix:Name.t -> via:int -> unit
(** Install a FIB route on a node. *)

val node : t -> string -> Node.t option
(** Look a node up by the label it was created with via {!add_node}. *)

val nodes : t -> (string * Node.t) list
(** Every node created via {!add_node}, in creation order. *)

(** {1 Fault injection}

    Link and producer state can be perturbed mid-run, either directly
    or by installing a {!Sim.Fault.schedule}.  All mutations are
    executed as ordinary engine events at deterministic virtual times,
    and a direction that is down consumes no randomness — so a faulted
    run is byte-reproducible and a run with an empty schedule is
    byte-identical to one with no fault machinery at all. *)

val set_link_state :
  t -> a:string -> b:string -> up:bool -> unit -> (unit, string) result
(** Bring both directions of the [a]–[b] link (created by {!connect},
    either orientation) down or up.  Packets offered to a downed
    direction are dropped silently (traced as [link.drop] with
    [reason=down]).  [Error _] if no such link exists. *)

(** {1 Bounded link queues}

    By default links have infinite capacity: every offered packet is
    scheduled for delivery immediately (after its sampled latency) and
    the plane cannot congest — the legacy model.  Giving a direction a
    {e transmission queue} makes packets serialize at a finite rate
    behind the backlog, with a bounded number waiting; the excess is
    dropped, which is what an interest-flooding adversary exploits and
    what NACKs ({!Node.set_nacks_enabled}) report downstream. *)

val set_link_queue :
  t -> a:string -> b:string -> rate_mbps:float -> depth:int -> unit ->
  (unit, string) result
(** Give both directions of the [a]–[b] link (either orientation) a
    bounded transmission queue: packets serialize at [rate_mbps]
    (Mbit/s, using {!Wire.encoded_size} bytes per packet) and at most
    [depth] may be backlogged; an arrival at a full queue is dropped
    (drop-tail).  A dropped packet is traced as [queue.drop]; a dropped
    {e Interest} is answered with a [Congested] NACK to the sending
    forwarder when that forwarder has NACKs enabled.  Configure before
    traffic runs.  [Error _] if the link does not exist, the rate is
    not positive and finite, or [depth <= 0]. *)

val install_faults : t -> Sim.Fault.schedule -> (unit, string) result
(** Validate the schedule ({!Sim.Fault.validate} plus an upfront check
    that every named node and link exists in this network) and schedule
    each event with the engine.  Applying an event emits a [fault.*]
    trace record and then performs its semantics: link events set
    each direction's up/down state, loss and latency factor, [Node_crash]/[Node_restart] call
    {!Node.crash}/{!Node.restart}, producer faults toggle
    {!Node.set_producers_enabled}/{!Node.set_production_factor}.
    Windowed faults ([Link_degrade], [Producer_outage],
    [Producer_slowdown]) schedule their own restore at [until] (traced
    with [state=restored]).  On [Error _] nothing was scheduled. *)

val run : ?until:float -> t -> unit
(** Drain the event queue (bounded by [until] when given).  This
    advances the {!Sim.Shard} partition — spawning [shards - 1]
    domains for the duration of the call — and leaves every trace
    record in the network tracer, in global [(time, key)] order. *)

val fetch_rtt :
  t ->
  from:Node.t ->
  ?scope:int ->
  ?timeout_ms:float ->
  Name.t ->
  float option
(** Express an interest from a node's local application, run the
    simulation until the exchange settles, and return the measured RTT
    in milliseconds ([None] on timeout).  This is the probe primitive
    of every attack in the paper. *)

(** {1 The paper's measurement topologies (Figure 3)} *)

type probe_setup = {
  net : t;
  user : Node.t;  (** Honest consumer U. *)
  adversary : Node.t;  (** Adv; in the local-host setup, equal to [user]'s host. *)
  router : Node.t;  (** The shared first-hop router R whose cache is probed. *)
  producer_host : Node.t;  (** Host of producer P. *)
  prefix : Name.t;  (** Namespace served by P. *)
  producer_key : string;  (** P's signing key. *)
}

type producer_config = {
  producer_private : bool;  (** Mark all produced content private. *)
  strict_match : bool;
  payload_size : int;
  production_delay_ms : float;
}

val default_producer_config : producer_config

val install_producer :
  config:producer_config -> prefix:Name.t -> key:string -> Node.t -> unit
(** Serve [prefix] from the node: each matching interest is answered
    with a fresh object signed under [key] by the node's label, whose
    [payload_size]-byte payload is the name's hex SHA-256 repeated —
    deterministic, so repeated runs are byte-identical. *)

val lan :
  ?seed:int -> ?tracer:Sim.Trace.t -> ?shards:int -> ?producer:producer_config ->
  unit -> probe_setup
(** Figure 3(a): U and Adv on Fast Ethernet to R; P behind R.  [shards]
    (here and on every builder below) is forwarded to {!create}. *)

val wan :
  ?seed:int -> ?tracer:Sim.Trace.t -> ?shards:int -> ?producer:producer_config ->
  unit -> probe_setup
(** Figure 3(b): U and Adv several (2) hops from the shared R; P three
    hops from R.  Intermediate hops are caching NDN routers. *)

val wan_producer :
  ?seed:int -> ?tracer:Sim.Trace.t -> ?shards:int -> ?producer:producer_config ->
  unit -> probe_setup
(** Figure 3(c): P directly connected to R; U and Adv three long-haul
    hops away — the producer-privacy setting where hit and miss
    distributions overlap heavily. *)

val local_host :
  ?seed:int -> ?tracer:Sim.Trace.t -> ?shards:int -> ?producer:producer_config ->
  unit -> probe_setup
(** Figure 3(d): honest applications and a malicious application share
    one host's forwarder; [user == adversary] is the host node and
    [router] is that same host (its local Content Store is the probed
    cache). *)

(** {1 Two-party interactive topology}

    For the combined attack of Section I: learning whether two parties
    are (or were recently) involved in two-way interactive
    communication, by probing the shared router for both parties'
    content. *)

type conversation_setup = {
  cnet : t;
  alice : Node.t;  (** Endpoint A: produces under [alice_prefix], consumes B's. *)
  bob : Node.t;
  eavesdropper : Node.t;  (** The adversary host, also behind the router. *)
  shared_router : Node.t;
  alice_prefix : Name.t;
  bob_prefix : Name.t;
  alice_key : string;
  bob_key : string;
}

val conversation : ?seed:int -> ?shards:int -> unit -> conversation_setup
(** Alice, Bob and the adversary all attached to one router over
    Fast Ethernet; routes installed for both parties' prefixes.  No
    producers are registered — callers attach session endpoints (see
    {!Core.Interactive_session} in the core library). *)

(** {1 Edge/core deployment topology}

    For the question the paper defers in footnote 6: {e which} routers
    should run the countermeasure?  Two edge routers serve disjoint
    consumer populations; both reach the producer through one core
    router whose cache serves cross-population hits. *)

type edge_core_setup = {
  ecnet : t;
  victim : Node.t;  (** Consumer behind [edge1] whose privacy is at stake. *)
  local_adversary : Node.t;  (** Adversary sharing [edge1] with the victim. *)
  remote_consumer : Node.t;  (** Honest consumer behind [edge2]. *)
  edge1 : Node.t;
  edge2 : Node.t;
  core : Node.t;
}

val edge_core :
  ?seed:int -> ?producer:producer_config -> unit -> edge_core_setup
(** victim, adversary — edge1 — core — P; remote consumer — edge2 —
    core.  The core-to-producer link is slow (tens of ms), so core
    caching matters to remote consumers — which is exactly what an
    indiscriminately-deployed delay countermeasure destroys. *)
