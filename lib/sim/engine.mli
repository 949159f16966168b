(** Discrete-event simulation engine.

    A virtual clock (milliseconds, [float]) and an event queue.  Events
    are thunks executed at their scheduled time; events scheduled for
    the same instant run in scheduling order.  Nothing here is
    concurrent — the engine is a deterministic single-threaded loop,
    which is what makes experiments exactly reproducible.

    The hot path is allocation-free: the queue is a struct-of-arrays
    {!Heap}, and handle records are recycled through a free-list once
    their event has fired or been cancelled.  A cancelled event leaves
    the queue at once; only a {!hold_until} at its time stays behind.
    Consequence of recycling: a handle is meaningful from [schedule]
    until its event fires or is cancelled; after that the record may be
    reused by a later [schedule], at which point {!cancel}/{!is_cancelled}
    on the stale handle refer to the new event.  Cancel an event only
    while it is still pending — which is the only useful time to do
    so.

    Dispatch is replace-top: a fired event's heap entry stays at the
    root, dead, while its action runs, and the first event the action
    schedules takes that slot with one sift-down from the root — a pop
    and an add would sift twice.  If the action schedules nothing, the
    root is dropped when it returns; if it raises, on entry to the next
    {!run} or {!step}.  The dead root is never reported: {!has_queued},
    {!next_event_time} and the [engine.step] depth leave it out, and pop
    order is the same total [(time, key)] order as before.  Nothing a
    cancelled event leaves is reported either: those three, {!step} and
    {!pending} see queued live events and the hold event only. *)

type t

type handle
(** A scheduled event, usable for cancellation (e.g. a PIT-entry
    timeout that is disarmed when the Data packet arrives).  Recycled
    after the event fires — do not retain handles past their event's
    lifetime (see the module preamble). *)

val create : ?tracer:Trace.t -> unit -> t
(** Fresh engine with the clock at [0.].  When [tracer] (default
    {!Trace.disabled}) is enabled, every executed event emits an
    [engine.step] record carrying the queue depth after dispatch and
    the running processed count — queue dynamics and events-per-ms
    become observable without touching the hot path when disabled.
    The depth counts live events and a queued {!hold_until} event;
    cancelled events are gone from it. *)

val now : t -> float
(** Current virtual time in milliseconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  Negative delays
    are clamped to [0.] (the event runs "now", after currently pending
    same-instant events).  Allocation-free when a recycled handle
    record is available. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant of {!schedule}.  Times in the past are clamped
    to the current instant. *)

val schedule_key : t -> delay:float -> key:int -> (unit -> unit) -> handle
(** {!schedule} with an explicit heap tie-break key instead of the
    engine's private insertion counter.  Same-instant events fire in
    ascending [key] order.  Used by {!Sim.Shard}-mode networks, which
    key every event with a globally unique [(node id, per-node counter)]
    pair so that pop order — and therefore the whole simulation — is
    invariant under the partitioning of nodes into shards.  Callers
    must never mix keyed and unkeyed scheduling on one engine: the
    engine's internal counter would collide with packed keys. *)

val schedule_key_at : t -> time:float -> key:int -> (unit -> unit) -> handle
(** Absolute-time variant of {!schedule_key}. *)

val hold_until : t -> float -> unit
(** Keep the engine busy until [time], as if an event were queued
    there: a drained {!run} ends with the clock at [time] or later, and
    [run ~until] with an earlier limit stops the clock at the limit.
    One queued hold event stands for every hold; reaching it moves the
    clock, but it is not counted by {!events_processed}, traced, or
    charged to [max_events].  A forwarder that skips an event it no
    longer needs holds the engine at that event's time, and {!cancel}
    holds it at a cancelled event's time, so the end of a run does not
    move.  The hold event is not counted by {!pending}:
    it stands for events that were skipped, not for one that will
    run. *)

val cur_key : t -> int
(** Heap key of the event currently being dispatched (or the value most
    recently installed with {!set_cur_key}).  {!Sim.Shard} tags trace
    records with this to stitch per-shard buffers into a
    shard-count-invariant total order. *)

val set_cur_key : t -> int -> unit
(** Claim the current key from a root context (code running between
    events, e.g. a driver expressing an interest directly), so trace
    records it causes sort under a fresh unique key rather than under
    whatever event happened to run last. *)

val cancel : handle -> unit
(** Disarm a scheduled event: take it out of the queue, in O(log n),
    and recycle its handle.  The action is released at once, so
    whatever only its closure holds can be collected before the
    event's time.  The engine is held at the event's time as by
    {!hold_until}: a drained {!run} still ends with the clock there,
    {!last_fire_time} reports the hold once it is reached, and
    [run ~until] with an earlier limit stops the clock at the limit.
    Pop order of the remaining events does not change.  Cancelling an
    already-fired or already-cancelled event is a no-op — but see the
    recycling caveat in the module preamble: once the event has fired
    or been cancelled, the handle may have been reused by a later
    [schedule]. *)

val is_cancelled : handle -> bool

val step : t -> bool
(** Execute the next queued event.  Returns [false] when the queue is
    empty (clock unchanged).  A reached {!hold_until} event advances
    the clock but executes nothing; cancelled events are no longer
    queued, so no step reaches one. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the event queue.  [until] stops the clock at the given time
    (events scheduled later stay queued); [max_events] bounds the number
    of events {e executed} — a reached {!hold_until} event does not
    consume the budget, so the bound matches what {!events_processed}
    reports — a guard against non-terminating protocols. *)

val pending : t -> int
(** Number of {e live} queued events: scheduled, not yet fired and not
    cancelled.  A queued {!hold_until} event, which also stands for the
    times of cancelled events, is not counted. *)

val has_queued : t -> bool
(** Whether a live event or the {!hold_until} event is still queued.
    This is the condition a lone engine's [run ~until] uses to decide
    whether to advance the clock to the limit; {!Sim.Shard} needs the
    same predicate across all shard engines to compute a
    shard-count-invariant finish time. *)

val next_event_time : t -> float
(** Time key of the earliest queued event, live or the hold, or
    [infinity] when the queue is empty.  Read by {!Sim.Shard} to agree
    on the next global lookahead window. *)

val last_fire_time : t -> float
(** Time of the last event that actually executed, or of the last
    {!hold_until} event reached ([0.] before any) — including the holds
    {!cancel} leaves at cancelled events' times.  Unlike {!now}, this
    is not disturbed by [run ~until] clamping the clock, which makes it
    the shard-count-invariant ingredient of {!Sim.Shard}'s finish-time
    rule. *)

val advance_clock_to : t -> float -> unit
(** Push the clock forward to the given time if it is ahead of {!now}
    (never backwards).  {!Sim.Shard} realigns all shard engines to one
    agreed finish time after a windowed run. *)

val events_processed : t -> int
(** Total events executed since creation. *)
