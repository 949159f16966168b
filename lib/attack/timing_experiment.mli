(** The measurement campaigns behind Figure 3: collect hit-vs-miss RTT
    distributions in a given topology and quantify how well the
    adversary distinguishes them. *)

type phase = {
  phase_start : float;  (** Inclusive start (virtual ms within a run). *)
  phase_end : float;  (** Exclusive end; [infinity] for the last phase. *)
  phase_warm : int;  (** Warm (should-be-hit) probes issued in the window. *)
  phase_cold : int;
  phase_accuracy : float;
      (** Balanced accuracy of the campaign-wide detector restricted to
          this window's probes (timeouts classified as misses); [nan]
          when a side is empty. *)
  phase_fnr : float;
      (** False-negative rate: warm probes the adversary classified as
          "not cached" (slow answer or timeout).  This is the headline
          churn metric — every router restart flushes the cache, so the
          user's requests stop being observable until re-warmed. *)
}

type result = {
  hit_samples : float array;  (** RTTs of probes served from the probed cache. *)
  miss_samples : float array;  (** RTTs of probes served from beyond it. *)
  hit_hist : Sim.Histogram.t;
  miss_hist : Sim.Histogram.t;  (** Shared bin layout with [hit_hist]. *)
  success_rate : float;
      (** Held-out balanced accuracy of the trained {!Detector} — the
          number the paper reports (99.9% LAN, >99% WAN, 59%
          producer). *)
  timeouts : int;
  trace : Sim.Trace.t;
      (** Per-run traces merged in run order; {!Sim.Trace.disabled}
          unless the campaign ran with [trace:true]. *)
  phases : phase list;
      (** Separability per fault phase (segments of
          {!Sim.Fault.phase_boundaries}); empty without [faults]. *)
}

val run :
  make_setup:(seed:int -> tracer:Sim.Trace.t -> Ndn.Network.probe_setup) ->
  ?contents:int ->
  ?runs:int ->
  ?seed:int ->
  ?bins:int ->
  ?jobs:int ->
  ?shards:int ->
  ?trace:bool ->
  ?faults:Sim.Fault.schedule ->
  unit ->
  result
(** Reproduce the paper's procedure: per run (fresh caches), the
    producer publishes [contents] objects, the honest user U fetches
    the "warm" half, and the adversary then probes warm names (hit
    samples) and never-requested names (miss samples).  Defaults:
    [contents = 100] per run, [runs = 10], 40 histogram [bins].
    Figure 3(c) uses the same mechanics with a different reading:
    "hit" means {e some consumer} recently requested the content (it
    sits in R's cache), "miss" means only the producer has it.

    Runs execute on [jobs] domains via {!Sim.Parallel} — run [r] is a
    pure function of [seed + r] and per-run samples are concatenated in
    run order, so the result is identical for any [jobs].

    [shards] (default 1) declares how many {!Sim.Shard} domains each
    run's network spins up — the campaign does not shard networks
    itself; pass a [make_setup] that builds them (e.g.
    [Ndn.Network.lan ~shards]) and declare the count here so the two
    fan-out axes can be budgeted together.  When [jobs] is omitted it
    is derated to [default_jobs () / shards] (at least 1); an explicit
    [jobs] is validated with {!Sim.Parallel.check_domains}, and the
    campaign raises [Invalid_argument] when [jobs * shards] exceeds the
    domain budget.

    [make_setup] receives a per-run [tracer]: {!Sim.Trace.disabled}
    unless [trace] (default [false]) is set, in which case each run
    buffers its events privately and the buffers are merged in run
    order into [result.trace] — rendering that trace yields the same
    bytes for any [jobs].

    [faults] (default empty — byte-identical to the unfaulted
    procedure) installs the schedule into every run's fresh network and
    paces the warm/probe/probe triples across the fault horizon, one
    triple every interval (the horizon plus a tail, divided by
    [contents], floored at 50 ms), so probes sample every network
    regime; [result.phases] then reports per-phase separability.
    Within each triple the adversary probes half an interval after the
    user's fetch
    — the adversary cannot observe the fetch, so a router reboot inside
    that window flushes the cache and produces a false negative.
    @raise Invalid_argument if the schedule names unknown nodes or
    links. *)

val false_negative_rate : result -> float
(** Warm-probe-weighted average of the per-phase false-negative rates;
    [nan] for an unfaulted campaign (no phases). *)

val pp_result : Format.formatter -> result -> unit
(** Histograms side by side plus the distinguisher success rate, and —
    for faulted campaigns — a per-phase separability table. *)
