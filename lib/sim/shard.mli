(** Conservative intra-trial multicore sharding.

    {!Parallel} runs independent trials on separate domains; this
    module parallelizes {e one} trial: the caller partitions its node
    set into [K] shard-local {!Engine}s (one OCaml domain each), keys
    every event with a globally unique [(node id, per-node counter)]
    pair via {!Engine.schedule_key}, and routes cross-shard deliveries
    through {!send}.  {!run} then advances all shards in conservative
    lookahead windows (classic null-message/time-bucket design): the
    window width is the minimum {!Latency.lower_bound} over cross-shard
    links (as registered with {!note_min_link_delay}), so no shard can
    ever receive a message dated inside a window it already executed.

    {b Determinism.}  Pop order on each engine is total on
    [(time, key)] and the keys are partition-independent, so every
    node processes the identical event sequence for any shard count;
    trace records are tagged with the emitting event's key and
    stitched across the per-shard buffers by [(time, tag)] into one
    byte stream.  Every [Ndn.Network] runs on this (K = 1 by
    default), which makes [--shards N] byte-identical to [--shards 1]
    except for the K = 1 engine's [engine.step] records.

    {b Threading rules.}  Between two {!run} calls everything belongs
    to the calling domain.  During {!run}, shard [i]'s engine (and the
    nodes living on it) must only be touched from shard [i]'s events;
    the only legal cross-shard channel is {!send}. *)

type t

val create : ?tracer:Trace.t -> shards:int -> unit -> t
(** [shards] engines with fresh clocks.  When [tracer] (default
    {!Trace.disabled}) is enabled, each shard gets an enabled sink
    {!tracer} that buffers tagged records; they reach [tracer] sorted by
    [(time, tag)] — a total order independent of the shard count — at
    the end of every {!run} and, at [shards = 1], as soon as virtual
    time moves past their instant.  Otherwise all shard tracers are
    {!Trace.disabled}.  At [shards = 1] the one engine also emits its
    [engine.step] records, one per executed event; at [shards >= 2]
    engines emit none: queue depth and processed counts are per-engine
    quantities and would differ across shard counts.
    @raise Invalid_argument when [shards < 1]. *)

val engine : t -> int -> Engine.t
(** The engine hosting shard [i]. *)

val tracer : t -> int -> Trace.t
(** The tracer to hand to every node assigned to shard [i]. *)

val assign : t -> string -> int
(** Fixed hash-based shard assignment (FNV-1a of the label, mod
    shard count) — platform- and run-independent. *)

val note_min_link_delay : t -> float -> unit
(** Register a cross-shard link's minimum one-way delay
    ({!Latency.lower_bound}).  The lookahead window is the minimum over
    all registered delays.  While it is unregistered ([infinity]) no
    cross-shard link exists, so {!run} executes the shards one after
    the other on the calling domain; {!run} refuses to start when the
    registered lookahead is not positive. *)

val note_latency_factor : t -> float -> unit
(** Register a fault-schedule latency degradation factor [< 1.]: a
    [Link_degrade] that {e speeds up} a link shrinks the soundness
    bound, so the lookahead is scaled down by the smallest factor ever
    registered. *)

val set_watchdog : t -> ?stall_ms:float -> clock_ms:(unit -> float) -> unit -> unit
(** Arm the barrier stall watchdog for subsequent {!run}s: a shard that
    waits more than [stall_ms] (default 30_000) of wall-clock time at a
    window barrier without release raises [Failure] with a diagnostic
    naming the shard(s) that never arrived, every engine's pending
    event count and the cross-shard queue depths — turning a hung run
    (an event-loop livelock, a deadlocked callback) into an actionable
    error.  [clock_ms] supplies wall-clock milliseconds; the library
    deliberately takes it as an argument (the simulator core reads no
    wall clocks — see lint rule D3), e.g. from [Unix.gettimeofday] in a
    binary.  While armed, blocked waiters poll (the stdlib [Condition]
    has no timed wait) checking the clock every few thousand spins, so
    leave it off — the default — for oversubscribed perf runs.  A fired
    watchdog does not stop the stuck shard; the run is unrecoverable
    and the process should exit.
    @raise Invalid_argument unless [stall_ms] is positive and finite. *)

val clear_watchdog : t -> unit
(** Disarm: return the barrier to its hybrid spin-then-block wait. *)

val send :
  t -> src:int -> dst:int -> time:float -> key:int -> (unit -> unit) -> unit
(** Enqueue a cross-shard delivery: [f] will execute on shard [dst]'s
    engine at [time] with heap tie-break [key].  Must only be called
    from shard [src]'s domain (or from the calling domain between
    runs), with [time >= sender's now + the registered minimum link
    delay].  Queues are bounded; overflowing one lookahead window
    raises [Failure]. *)

val run : ?until:float -> t -> unit
(** Advance all shards in lookahead windows until globally quiescent
    (or until the horizon, leaving later events queued).  Spawns
    [shards - 1] domains for the duration of the call; combined with
    {!Parallel} trial workers, budget them via
    {!Parallel.check_domains}.  On return all shard clocks are aligned
    to one shard-count-invariant finish time, and every buffered trace
    record has reached the creation [tracer].  An exception raised by
    any shard's event stops every shard at the next window boundary and
    is re-raised here. *)

val now : t -> float
(** The aligned clock (all shards agree between runs). *)

val windows : t -> int
(** Lookahead window rounds the last {!run} executed: one per agreed
    [gnext] at or before the horizon.  [0] when no window protocol ran
    ([shards = 1], or no cross-shard link).  The count depends on the
    partition; what the run computes does not. *)

val events_processed : t -> int
(** Total events executed across all shard engines. *)
