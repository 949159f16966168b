(** An NDN forwarder: Content Store + PIT + FIB wired into the
    discrete-event engine.

    The same type models routers, consumer hosts (with a local
    application face) and producer hosts (with a registered content
    handler).  A host's forwarder has its own Content Store, which is
    what the local-adversary attack of the paper probes (Figure 2 /
    Figure 3d). *)

type t

(** {1 Cache-response strategy}

    The interposition point for the paper's countermeasures: the
    privacy layer decides, per cache hit, whether to respond
    immediately, respond after an artificial delay, or behave exactly
    like a miss. *)

type response_action =
  | Respond  (** Serve the cache hit immediately. *)
  | Respond_after of float
      (** Serve from cache after an artificial delay (milliseconds) —
          bandwidth is preserved, latency mimics a miss. *)
  | Treat_as_miss
      (** Ignore the cache: forward the interest upstream as if the
          content were absent. *)

type strategy = {
  on_cache_hit : now:float -> Interest.t -> Data.t -> response_action;
  should_cache : now:float -> Data.t -> fetch_delay:float -> bool;
      (** Whether to admit arriving content; [fetch_delay] is the
          measured interest-in → data-in delay for this object, which
          the content-specific-delay countermeasure records. *)
  note_miss : now:float -> Interest.t -> unit;
      (** Observation hook fired on every cache miss. *)
  forward_delay : now:float -> Data.t -> fetch_delay:float -> float;
      (** Extra artificial delay (ms) applied before forwarding
          arriving Data downstream — the constant-delay countermeasure
          pads misses here so that hit and miss latencies match. *)
}

val default_strategy : strategy
(** Plain NDN: serve every hit immediately, cache everything. *)

(** {1 Construction} *)

val create :
  Sim.Engine.t ->
  rng:Sim.Rng.t ->
  label:string ->
  ?tracer:Sim.Trace.t ->
  ?cs_capacity:int ->
  ?cs_policy:Eviction.t ->
  ?pit_lifetime_ms:float ->
  ?pit_capacity:int ->
  ?pit_admission:Pit.admission ->
  ?nacks:bool ->
  ?forwarding_delay:Sim.Latency.t ->
  ?honor_scope:bool ->
  ?caching:bool ->
  ?sid:int ->
  ?shard:int ->
  unit ->
  t
(** Every event the node schedules is keyed with the packed
    [(sid, per-node counter)] pair via {!Sim.Engine.schedule_key}, so
    pop order is invariant under [Sim.Shard] partitioning.  [sid]
    (default [0]) must be unique among the nodes sharing a
    {!Sim.Shard} partition ({!Network.add_node} uses creation order),
    and [shard] (default [0]) names the node's shard.  A node built
    alone on a fresh engine can leave both at their defaults, as long
    as nothing else schedules keyed events on that engine.

    [tracer] (default {!Sim.Trace.disabled}): when enabled the node
    emits [interest.recv]/[interest.fwd]/[interest.collapsed],
    [data.recv]/[data.sent] and [pit.timeout] records tagged with
    [label], and its Content Store emits the [cs.*] family.
    [cs_capacity] defaults to unbounded; [forwarding_delay] (default a
    small constant) models per-packet processing; [honor_scope]
    (default [true]) — routers "are allowed to disregard this field"
    (Section III), so it is switchable.  [caching] (default [true]):
    when [false] the node never admits content into its CS — used for
    consumer hosts in probing experiments, where the adversary bypasses
    its own local cache.

    [pit_capacity]/[pit_admission] bound the PIT (default: unbounded —
    see {!Pit}); [nacks] (default [false]) lets this forwarder
    generate, relay and consume {!Nack.t} packets.  All three default
    to the legacy byte-identical behavior. *)

val set_caching : t -> bool -> unit

val set_pit_limits : t -> ?capacity:int -> ?admission:Pit.admission -> unit -> unit
(** Replace the PIT with a fresh finite table ([admission] defaults to
    {!Pit.Drop_new}; omitting [capacity] returns to unbounded).
    Pending entries are {e discarded} — call this while configuring a
    topology, before traffic runs. *)

val set_nacks_enabled : t -> bool -> unit
(** Switch NACK generation/relay/consumption on this forwarder.  Off
    (the default), arriving NACKs are dropped silently and none are
    produced — the legacy plane. *)

val nacks_enabled : t -> bool

(** {1 Fault injection}

    The crash/restart pair models a router reboot — the perturbation
    the paper's stable-network assumption rules out.  Both are plain
    state transitions executed at the current virtual instant, so they
    compose with the engine's determinism guarantees. *)

val crash : ?preserve_cs:bool -> t -> unit
(** Take the forwarder down, at the current virtual time:

    - every pending local expression fails {e now} — its armed timeout
      is cancelled and its [on_timeout] callback fires exactly once
      (the application died with the forwarder);
    - the PIT is drained (each dropped entry is traced as
      [pit.timeout] with [reason=crash]); downstream consumers learn
      of the loss through their own retransmission timers;
    - the Content Store is flushed (traced as [cs.flush]) unless
      [preserve_cs] (default [false]) — set it to model a persistent
      on-disk cache that survives the reboot;
    - until {!restart}, every arriving packet, locally expressed
      interest and producer invocation is dropped (counted in
      [dropped_down]).

    Idempotent: crashing a crashed node is a no-op. *)

val restart : t -> unit
(** Bring a crashed forwarder back with cold tables (unless the CS was
    preserved).  FIB routes and faces are configuration, not state:
    they survive. *)

val is_alive : t -> bool

val set_producers_enabled : t -> bool -> unit
(** When [false], every producer application on this node returns no
    content: interests for its namespaces die at the app face and time
    out downstream — a producer outage with the forwarder still up. *)

val producers_enabled : t -> bool

val set_production_factor : t -> float -> unit
(** Multiply every producer application's production delay (default
    [1.]) — an overloaded or throttled origin.
    @raise Invalid_argument unless the factor is positive and finite. *)

val production_factor : t -> float

val label : t -> string

val engine : t -> Sim.Engine.t

val tracer : t -> Sim.Trace.t
(** The tracer passed at creation — in a {!Network}, the node's shard
    tracer, which is where code acting on this node's behalf (link
    delivery, fault application, countermeasure wrappers) must emit so
    records land in the right stitch buffer. *)

val shard : t -> int
(** The shard index passed at creation. *)

val fresh_event_key : t -> int
(** Next packed [(sid, counter)] event key, consuming one counter
    step.  For network plumbing that schedules on the node's behalf
    (link delivery, cross-shard sends); application code should use
    {!schedule_app} instead. *)

val schedule_app : t -> delay:float -> (unit -> unit) -> unit
(** Schedule driver/application work on this node's engine, keyed with
    the node's own event key.  Anything a driver wants to run "on a
    node" must go through this (or {!schedule_app_at}) so the event
    order stays shard-count-invariant: an unkeyed
    {!Sim.Engine.schedule} on a network's engine would mix the engine's
    FIFO counter with node keys. *)

val schedule_app_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant of {!schedule_app}. *)

val content_store : t -> unit Content_store.t

val pit : t -> Pit.t

val fib : t -> Fib.t

val set_strategy : t -> strategy -> unit

val strategy : t -> strategy

(** {1 Faces and wiring}

    Faces are dense integer ids.  [Network] connects nodes by
    installing transmit closures; applications attach via dedicated
    face kinds. *)

val add_wire_face : t -> (Packet.t -> unit) -> int
(** Register a point-to-point face; the closure must deliver the packet
    to the peer (typically via {!receive} after a sampled latency). *)

val local_face : t -> int
(** The node's application face (face 0, always present): interests
    expressed locally arrive on it and matching Data is dispatched to
    local callbacks. *)

val add_producer : t -> prefix:Name.t -> ?production_delay_ms:float ->
  (Interest.t -> Data.t option) -> unit
(** Attach a producer application serving a namespace: a FIB route for
    [prefix] pointing at an app face; interests reaching that face
    invoke the handler after [production_delay_ms] (default [0.1]). *)

val receive : t -> face:int -> Packet.t -> unit
(** Entry point for packets arriving from the network at virtual time
    "now". *)

(** {1 Local consumer API} *)

val express_interest :
  t ->
  ?scope:int ->
  ?consumer_private:bool ->
  ?timeout_ms:float ->
  on_data:(rtt_ms:float -> Data.t -> unit) ->
  ?on_timeout:(unit -> unit) ->
  ?on_nack:(Nack.reason -> unit) ->
  Name.t ->
  unit
(** Issue an interest from the local application.  [on_data] fires with
    the measured round-trip time when content arrives; [on_timeout]
    (default: ignore) fires after [timeout_ms] (default the PIT
    lifetime) without a response.  [on_nack]: when given {e and} the
    forwarder has NACKs enabled, an arriving NACK for this name cancels
    the timeout and fires exactly one of the three callbacks — the
    fast-failure signal backoff-aware consumers react to; when omitted
    a NACK leaves the expression waiting for its timeout, exactly as
    before NACKs existed.  The local Content Store is consulted
    first — which is precisely the local-adversary channel. *)

(** {1 Introspection} *)

type counters = {
  interests_received : int;
  interests_forwarded : int;
  interests_collapsed : int;
  data_received : int;
  data_sent : int;
  cache_responses : int;  (** Served from CS (immediate or delayed). *)
  delayed_responses : int;  (** Subset of [cache_responses]. *)
  scope_drops : int;
  no_route_drops : int;
  unsolicited_data : int;
  dropped_down : int;  (** Packets dropped because the node was crashed. *)
  nacks_sent : int;  (** NACKs originated or relayed downstream. *)
  nacks_received : int;  (** NACKs arriving on any face. *)
}

val counters : t -> counters

val pp_counters : Format.formatter -> counters -> unit
