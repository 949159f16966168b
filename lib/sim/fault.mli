(** Deterministic fault injection.

    The paper's attacks and bounds assume a stable network: the only
    thing that evicts content is cache policy.  This module perturbs
    that assumption {e reproducibly}: a fault schedule is an ordinary
    piece of data (scripted by hand, parsed from a file, or generated
    from a seeded {!Rng}), and [Ndn.Network.install_faults] turns it
    into ordinary engine events — so a faulty run is exactly as
    deterministic as a healthy one, and byte-identical for any
    [--jobs N].

    This layer is network-agnostic: faults name their targets by
    string label and the embedding supplies the semantics — link state
    flips, Content-Store flushes, producer outages. *)

(** Which direction of a (bidirectional) link a fault applies to.
    [Ab] is the a→b direction as the endpoints are named in the
    fault. *)
type direction = Ab | Ba | Both

type kind =
  | Link_down of { a : string; b : string; dir : direction }
      (** Packets sent in the affected direction(s) are dropped. *)
  | Link_up of { a : string; b : string; dir : direction }
      (** Undo a {!Link_down}. *)
  | Link_degrade of {
      a : string;
      b : string;
      dir : direction;
      loss : float;  (** Loss probability while degraded, in [\[0,1\]]. *)
      latency_factor : float;  (** Multiplies every sampled latency. *)
      until : float;  (** Absolute restore time (ms); must exceed [at]. *)
    }
  | Node_crash of { node : string; preserve_cs : bool }
      (** The forwarder dies: PIT drained (pending local expressions
          time out immediately), Content Store flushed unless
          [preserve_cs] (a persistent cache surviving the reboot), and
          all packets are dropped until the matching {!Node_restart}. *)
  | Node_restart of { node : string }
  | Producer_outage of { node : string; until : float }
      (** The node's producer applications return no content until
          [until] (absolute ms). *)
  | Producer_slowdown of { node : string; factor : float; until : float }
      (** Production delays are multiplied by [factor] until [until]. *)

type event = { at : float; kind : kind }
(** A fault firing at absolute virtual time [at] (ms). *)

type schedule = event list
(** Sorted by [at] (stable: same-time events keep construction order).
    Build with {!sort}, {!parse} or a generator — all establish the
    invariant. *)

val empty : schedule

val sort : event list -> schedule
(** Stable sort by firing time. *)

val validate : event -> (unit, string) result
(** Structural checks that need no network: non-negative time, [loss]
    in [\[0,1\]], positive factors, windowed faults with
    [until > at]. *)

(** {1 Random schedules}

    Generators draw from an explicit {!Rng}, so a (seed, parameters)
    pair names a schedule exactly.  Targets are processed in list
    order and each consumes a deterministic slice of the stream. *)

val random_restarts :
  rng:Rng.t ->
  nodes:string list ->
  mean_uptime_ms:float ->
  downtime_ms:float ->
  horizon_ms:float ->
  ?preserve_cs:bool ->
  unit ->
  schedule
(** Crash/restart pairs per node: uptimes are exponential with mean
    [mean_uptime_ms], each crash is followed by its restart exactly
    [downtime_ms] later (the restart is emitted even when it lands past
    the horizon, so every crash is bracketed).  Empty on non-positive
    [mean_uptime_ms] or [horizon_ms]. *)

val phase_boundaries : schedule -> float list
(** The strictly increasing virtual times at which the network changes:
    every [at], plus every windowed fault's [until].  Experiments use
    these to segment their measurements into phases. *)

(** {1 Text format}

    One fault per line: [TIME KIND ARGS...]; ['#'] comments and blank
    lines are skipped.  {!print} emits the canonical form — every
    default written out, floats rendered with just enough digits to
    parse back exactly — so print/parse is a fixpoint.

    {v
    # time(ms)  kind          arguments
    120   link_down U R dir=ab
    180   link_up   U R dir=ab
    150   degrade   R P loss=0.3 latency_factor=2 until=400
    300   crash     R preserve_cs=false
    450   restart   R
    500   producer_down P until=800
    900   producer_slow P factor=4 until=1200
    v} *)

val parse_event_tokens : string list -> (event, string) result
(** Parse one fault from its whitespace-split tokens
    ([TIME :: KIND :: args]); used by both {!parse} and the
    [fault] directive of [Ndn.Topology_spec]. *)

val parse : string -> (schedule, string) result
(** Parse a whole schedule; errors are prefixed with [line N:].  The
    result is sorted. *)

val print_event : event -> string
(** Canonical one-line rendering (no newline). *)

val print : schedule -> string
(** Canonical rendering, one event per line, each newline-terminated.
    [parse (print s) = Ok s] for any valid schedule. *)
