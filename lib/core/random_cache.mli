(** Algorithm 1 of the paper: Random-Caching.

    Per content (or content group), the router draws a secret random
    threshold [k_C] from a configurable distribution; the first
    [k_C + 1] requests are answered as cache misses and every later
    request as a hit.  A hit therefore reveals only that the request
    count exceeded a random threshold, which Theorems VI.1/VI.3 turn
    into (k, ε, δ)-privacy guarantees. *)

type output = Hit | Miss

type t

val create :
  ?tracer:Sim.Trace.t ->
  ?label:string ->
  ?clock:(unit -> float) ->
  kdist:Kdist.t ->
  rng:Sim.Rng.t ->
  unit ->
  t
(** When [tracer] (default {!Sim.Trace.disabled}) is enabled,
    {!on_request} emits [rc.draw] (fresh threshold, with its [k]),
    [rc.fake_miss] (request disguised as a miss) and [rc.hit] records
    tagged with [label] (typically the owning node) and timestamped by
    [clock] (typically the simulation engine's clock; defaults to a
    constant [0.]).
    @raise Invalid_argument when [kdist] cannot be sampled: [Constant k]
    with [k < 0], [Uniform d] or [Truncated_geometric] with a domain
    [<= 0], or a [Weighted] law that is empty or whose total weight is
    not positive. *)

val on_request : t -> Ndn.Name.t -> output
(** Process one request for a content key and return the observable
    outcome per Algorithm 1.  The first request for a key draws its
    threshold and is always a miss. *)

val request_count : t -> Ndn.Name.t -> int
(** The counter [c_C]: number of requests seen so far (0 if never
    requested; the first request leaves the counter at 0, matching
    Algorithm 1 lines 7–8). *)

val threshold : t -> Ndn.Name.t -> int option
(** The drawn [k_C], if the key has been requested ([None] otherwise).
    Secret router state — exposed for tests and attack analysis only. *)

val tracked : t -> int
(** Number of distinct keys in T. *)

val forget : t -> Ndn.Name.t -> unit
(** Drop a key's state entirely: its next request re-enters Algorithm 1
    from scratch with a fresh threshold. *)

val pp_output : Format.formatter -> output -> unit

val output_equal : output -> output -> bool
