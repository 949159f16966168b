(** Fold-as-you-go trace analyzers: one pass, no materialized trace.

    An accumulator ingests {!Trace.event}s one at a time — from a live
    tracer, a binary stream or a JSONL stream — and summarizes what
    the old jq pipelines computed offline: per-kind counts, the
    timing-attack confusion matrix, per-tier cache hit rates, and
    link-delay {!Stats}/{!Histogram}.

    {b Merge law.}  Accumulators are mergeable in the sense
    [Sim.Parallel] tests: feeding a stream into one accumulator and
    feeding disjoint splits into several then {!merge}-ing agree —
    exactly for every counter, and within float tolerance for the
    Welford statistics (whose parallel merge reassociates additions).
    Per-shard or per-trial partial folds therefore combine
    deterministically.

    {b Bit-for-bit.}  Times are quantized through {!Trace.time_to_us}
    (the binary wire precision, which equals the JSONL [%.6f]
    precision), and attr values cross both formats verbatim, so a
    binary trace and its JSONL rendering produce byte-identical
    {!render_json} summaries. *)

type t
(** A mutable streaming accumulator. *)

val create : unit -> t

val feed : t -> Trace.event -> unit

val merge : t -> t -> t
(** Combine two partial folds into a fresh accumulator (inputs are
    left usable). *)

val of_source : Trace_reader.source -> (t, Scan.error) result
(** Sniff the stream format and fold the whole trace into a fresh
    accumulator. *)

(** {1 Summaries} *)

val events : t -> int

val span_us : t -> int
(** Microseconds between the earliest and latest event (0 when empty). *)

val kind_count : t -> Trace.kind -> int

val distinct_nodes : t -> int

val distinct_names : t -> int

type attack = {
  warm : int;  (** Probed names previously cached by a user fetch. *)
  cold : int;  (** Probed names never requested before. *)
  tp : int;  (** Warm names on which the cache revealed a hit. *)
  tn : int;  (** Cold names on which it did not. *)
  tpr : float;
  tnr : float;
  accuracy : float;  (** [(tpr + tnr) / 2] — the paper's balanced accuracy. *)
}

val attack : t -> attack option
(** The timing-attack confusion matrix over [/warm/]- and
    [/cold/]-tagged content names; [None] when the trace contains no
    such probes. *)

type tier_row = {
  tier : int option;  (** [None] = untiered nodes ("U", "R", "engine", …). *)
  routers : int;
  hits : int;
  misses : int;
}

val tiers : t -> tier_row list
(** Cache hits/misses per topology tier (parsed from the generated
    router labels ["<prefix>-t<tier>-n<i>"]), sorted by tier with the
    untiered bucket last. *)

val delay : t -> Stats.t
(** Streaming stats over [link.tx] [delay_ms] attrs.  The returned
    accumulator is live — do not mutate it. *)

val delay_hist : t -> Histogram.t
(** Fixed-layout histogram (0–100 ms, 20 bins, out-of-range clamped)
    of the same samples, so partial folds always merge. *)

val render_json : t -> string
(** Deterministic multi-line JSON summary.  Floats are rendered with
    [%.17g] (exact double round-trip), so two equal summaries are
    equal bytes — the contract the CI smoke job diffs across the
    binary and JSONL pipelines. *)

val render_text : t -> string
(** Human-readable summary (same content, looser formatting). *)
