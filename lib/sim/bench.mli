(** Micro-benchmark measurement harness for the perf-regression suite.

    One discipline shared by [bench core] and any future benchmark:
    warmup rounds, then measured rounds bracketed by a caller-injected
    nanosecond clock and [Gc.minor_words], reporting the {e minimum}
    time and allocation per operation across rounds (a microbenchmark's
    noise is one-sided — interference only adds — so the minimum
    estimates intrinsic cost).

    This module never reads a clock itself: the repo's determinism lint
    forbids wall-clock access outside [bin/]-like executables, so
    callers pass [clock_ns] in (e.g. bechamel's monotonic clock). *)

type result = {
  label : string;
  ns_per_op : float;  (** Best-of-runs wall time per operation. *)
  allocs_per_op : float;
      (** Best-of-runs minor-heap {e words} allocated per operation
          (from [Gc.minor_words]).  [0.] means the operation touches
          the minor heap not at all — the zero-allocation contract the
          CS hit-path benchmark enforces. *)
  ops : int;  (** Operations per measured run. *)
  runs : int;  (** Measured runs (excluding warmup). *)
}

val measure :
  clock_ns:(unit -> float) ->
  ?warmup:int ->
  ?runs:int ->
  label:string ->
  ops:int ->
  (int -> unit) ->
  result
(** [measure ~clock_ns ~label ~ops f] calls [f ops] — [f] must perform
    [ops] iterations of the operation internally, so per-call overhead
    amortizes away — [warmup] (default 2) unmeasured times, then [runs]
    (default 5) measured times.  A [Gc.full_major] before each measured
    run keeps earlier runs' promotion debt from billing its minor
    collections here.
    @raise Invalid_argument if [ops <= 0] or [runs <= 0]. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

val result_to_json : result -> string
(** One flat JSON object:
    [{"op": label, "ns_per_op": _, "allocs_per_op": _, "ops": _,
    "runs": _}] — the per-operation record embedded in
    [BENCH_core.json]. *)

val pp_result : Format.formatter -> result -> unit
(** Human-oriented one-line rendering for terminal output. *)

(** {1 The bench ledger}

    [BENCH_core.json] is one JSON object with one member, a {e section},
    per writer ([core], [bench_scale], [overload]).  A writer merges its
    own section and leaves every other section's text byte for byte.
    File I/O stays with the caller. *)

val section :
  git_rev:string -> host_domains:int -> argv:string list -> (string * string) list -> string
(** One section: a JSON object whose members are the run's provenance
    — the commit, the host's domain count and the arguments — then
    [fields], (member name, JSON value text) pairs, in order, one
    member per line. *)

val merge_section :
  string option -> name:string -> string -> (string, string) Stdlib.result
(** [merge_section ledger ~name section] is the ledger text with member
    [name] set to [section]: replaced in place when present, appended
    otherwise.  Every other member's value text is copied unchanged.
    [None] (no file yet) starts a fresh ledger.  [Error "line L, column
    C: ..."] when [ledger], or the merged result, is not one JSON
    object. *)

val git_rev : read:(string -> string option) -> string option
(** The commit [HEAD] names, resolved as [git rev-parse HEAD] resolves a
    detached HEAD, a loose ref and a ref found only in [packed-refs]
    (symbolic refs are followed up to five levels).  [read path] returns
    the contents of [path] relative to the git directory, or [None].
    [None] when no 40-hex commit is reached. *)
