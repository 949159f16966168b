(** Structured event tracing for the simulator.

    The paper's attacks are observations of cache state through timing;
    this module makes the {e simulator's} internal state observable to
    us: every layer (engine dispatch, Content Store, forwarding plane,
    Algorithm 1) can emit typed event records into a tracer, and
    exporters render them as JSONL or the compact binary wire format
    for offline analysis.

    {b Cost model.}  A tracer is either {!disabled} — a shared inert
    handle — or enabled.  Instrumented hot paths guard every emission
    with [if Trace.enabled t then Trace.emit t …], so a disabled tracer
    costs one load-and-branch per site and allocates nothing.  All
    constructors default to {!disabled}; tracing is strictly opt-in.

    {b Determinism.}  Events carry only virtual time, component labels
    and content names — never wall-clock time or domain identity — and
    are buffered in emission order.  Per-trial tracers produced under
    {!Parallel} are combined with {!merge_into} in trial order, so the
    exported byte stream is identical for any [--jobs N]. *)

(** What happened.  The rendered wire names (see {!kind_to_string})
    form the stable schema: ["engine.step"], ["cs.hit"], ["cs.miss"],
    ["cs.insert"], ["cs.evict"], ["cs.expire"], ["interest.recv"],
    ["interest.fwd"], ["interest.collapsed"], ["data.recv"],
    ["data.sent"], ["pit.timeout"], ["link.tx"], ["link.drop"],
    ["rc.draw"], ["rc.fake_miss"], ["rc.hit"], ["cs.flush"],
    ["fault.link"], ["fault.crash"], ["fault.restart"],
    ["fault.producer"], ["pit.drop"], ["queue.drop"],
    ["nack.congested"], ["nack.no_route"], ["nack.pit_full"],
    ["nack.duplicate"], ["consumer.give_up"]. *)
type kind =
  | Engine_step  (** One event executed by {!Engine}. *)
  | Cs_hit
  | Cs_miss
  | Cs_insert
  | Cs_evict
  | Cs_expire
  | Interest_received
  | Interest_forwarded
  | Interest_collapsed  (** PIT aggregation suppressed an upstream send. *)
  | Data_received
  | Data_sent
  | Pit_timeout  (** A PIT sweep dropped expired entries. *)
  | Link_transmit  (** A packet put on a wire, with its latency draw. *)
  | Link_drop  (** A packet lost on a wire. *)
  | Rc_draw  (** Algorithm 1 drew a fresh per-content threshold k_C. *)
  | Rc_fake_miss  (** Algorithm 1 disguised a request as a miss. *)
  | Rc_hit  (** Algorithm 1 revealed the content. *)
  | Cs_flush  (** A Content Store dropped its whole population at once. *)
  | Fault_link  (** Injected link fault (attrs: peer, dir, state). *)
  | Fault_crash  (** Injected router crash (attrs: preserve_cs). *)
  | Fault_restart  (** Injected router restart. *)
  | Fault_producer  (** Injected producer outage/slowdown (attrs: state). *)
  | Pit_drop
      (** A finite PIT rejected or evicted an entry (attrs: policy,
          reason). *)
  | Queue_drop
      (** A bounded link transmission queue dropped a packet (attrs:
          peer, policy, depth). *)
  | Nack_congested  (** NACK sent/propagated: transmission queue full. *)
  | Nack_no_route  (** NACK sent/propagated: no FIB route. *)
  | Nack_pit_full  (** NACK sent/propagated: PIT admission refused. *)
  | Nack_duplicate  (** NACK sent/propagated: looping duplicate nonce. *)
  | Consumer_give_up
      (** A consumer fetch exhausted its retry budget (attrs:
          attempts, nacks). *)

type event = {
  time : float;  (** Virtual time (ms) at emission. *)
  node : string;  (** Component label: node name, ["engine"], … *)
  kind : kind;
  name : string;  (** Content name, [""] when not applicable. *)
  attrs : (string * string) list;
      (** Auxiliary key/value pairs (policy label, face id, latency
          draw, k_C, …) in a fixed per-kind order. *)
}

val kind_to_string : kind -> string

val kind_of_string : string -> kind option

val all_kinds : kind list
(** Every kind, in declaration order. *)

val all_kind_names : string list
(** Wire names of {!all_kinds}, same order — the programmatic twin of
    the checked-in registry [lib/sim/trace_kinds.txt].  ndnlint's
    T-rules fail the build if the registry and {!kind_to_string} drift
    apart, and [test_ndnlint] checks this list equals the registry, so
    exporters, docs and the linter all share one source of truth. *)

val kind_id : kind -> int
(** Stable binary id of a kind: its 0-based position in the registry
    [lib/sim/trace_kinds.txt].  The binary trace header snapshots the
    registry, so id [i] on the wire means the [i]-th name of that
    snapshot; ndnlint rule T4 fails the build when this table and the
    registry disagree. *)

(** {1 Tracers} *)

type t

val disabled : t
(** The inert tracer: {!enabled} is [false], {!emit} is a no-op, the
    buffer is always empty.  Shared and immutable, hence safe to hand
    to every domain. *)

val create : unit -> t
(** Fresh enabled tracer buffering events in emission order. *)

val with_sink : (event -> unit) -> t
(** Enabled tracer that streams events to the one sink {e without}
    buffering them — for consumers that fold as they go and for
    overhead measurements. *)

val enabled : t -> bool

val emit : t -> event -> unit
(** Append to the buffer, or call the sink.  A no-op on {!disabled};
    hot paths should still guard with {!enabled} to skip constructing
    the event record. *)

val events : t -> event array
(** Buffered events in emission order (a copy; empty for a sink). *)

val length : t -> int

val iter : t -> (event -> unit) -> unit

val merge_into : into:t -> t -> unit
(** Append [t]'s buffered events to [into]'s buffer, preserving order.
    The deterministic combinator for per-trial tracers: merging in
    trial order makes the result independent of domain scheduling.
    @raise Invalid_argument if [into] is {!disabled}. *)

(** {1 Exporters}

    Both formats share one export loop: events are appended to one
    buffer, which {!render} returns and {!write} flushes to the
    channel in 64 KiB chunks. *)

type format = Jsonl | Binary

val format_of_string : string -> format option
(** ["jsonl"]/["json"], ["binary"]/["bin"] (case-insensitive). *)

val format_to_string : format -> string

val event_to_jsonl : event -> string
(** One JSON object per event, no trailing newline:
    [{"time":1.234567,"node":"R","kind":"cs.hit","name":"/prod/a","attrs":{"policy":"lru"}}].
    Times use a fixed [%.6f] rendering so equal traces are equal bytes. *)

val render : format -> t -> string
(** The whole buffered trace as one string: newline-terminated
    {!event_to_jsonl} lines, or the {!Binary} stream with its header. *)

val write : format -> out_channel -> t -> unit
(** The bytes of {!render}, flushed to the channel in 64 KiB chunks so
    the export never holds the whole byte stream. *)

(** {1 Binary wire format}

    A compact length-prefixed encoding for heavy-traffic runs (DESIGN
    §16): 8-byte magic ["ndntrace"], varint format version, a registry
    snapshot (each kind's wire name, in {!kind_id} order), then
    length-prefixed records.  Node labels, content names and attr keys
    are interned into a per-stream string table; timestamps are
    microsecond-quantized zigzag deltas — exactly the [%.6f] precision
    of the JSONL rendering, so both pipelines carry identical data.
    {!Trace_reader} is the streaming decoder; the exporter is exposed
    at encoder granularity so the bench harness can measure the emit
    path in isolation. *)

val binary_magic : string
(** ["ndntrace"] — the 8-byte stream prefix. *)

val binary_version : int
(** Current format version (readers reject others). *)

val time_to_us : float -> int
(** The microsecond quantization used on the wire:
    [round (t *. 1e6)].  {!Analyze} quantizes through the same
    function, so summaries computed from binary and JSONL pipelines
    agree bit-for-bit. *)

type encoder
(** Incremental binary exporter: an output buffer plus the string
    intern table and previous-timestamp state. *)

val encoder_create : unit -> encoder

val encoder_reset : encoder -> unit
(** Forget buffered bytes, interned strings and timestamp state, but
    keep the allocated capacity — the steady-state emit path allocates
    nothing (enforced by the bench alloc ceiling and by ndntype's
    A1/A2 rules on the [(* ndnlint: hot *)] annotations). *)

val encoder_add_header : encoder -> unit
(** Append magic + version + registry snapshot.  Call exactly once,
    before the first {!encode_event}. *)

val encode_event : encoder -> event -> unit
(** Append one event record (preceded by string-definition records for
    any strings seen for the first time). *)
