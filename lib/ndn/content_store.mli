(** The router Content Store (CS): the shared cache whose observability
    is the subject of the paper.

    The store is parameterized by a metadata type ['meta] so that the
    privacy layer ([Core]) can attach per-entry state — Random-Cache
    counters, privacy markings, measured fetch delays — without this
    substrate knowing about it. *)

type 'meta entry = private {
  data : Data.t;
  inserted_at : float;  (** Virtual time the object entered the cache. *)
  mutable last_access : float;
  mutable access_count : int;  (** Lookup hits on this entry. *)
  mutable meta : 'meta;
}

type 'meta t
(** Entries live in slot arrays behind a {!Name_index}; the recency
    list is a pair of int arrays. *)

val create :
  ?policy:Eviction.t ->
  ?rng:Sim.Rng.t ->
  ?tracer:Sim.Trace.t ->
  ?owner:string ->
  capacity:int ->
  unit ->
  'meta t
(** [capacity <= 0] means unbounded (the paper's "Inf" baseline).
    [policy] defaults to {!Eviction.Lru}.  [rng] is required only for
    {!Eviction.Random_replacement}.  When [tracer] (default
    {!Sim.Trace.disabled}) is enabled, the store emits [cs.hit],
    [cs.miss], [cs.insert], [cs.evict] and [cs.expire] records tagged
    with [owner] (the node label) and the eviction-policy name.
    @raise Invalid_argument if random replacement is requested without
    an [rng]. *)

val insert : 'meta t -> now:float -> Data.t -> 'meta -> unit
(** Cache a content object, evicting per policy when full.  Re-inserting
    an already-cached name refreshes the object, its timestamps and its
    metadata. *)

val lookup : 'meta t -> now:float -> ?exact:bool -> Name.t -> 'meta entry option
(** NDN cache matching for an interest name: an exact-name entry, or —
    unless [exact] — the smallest cached name extending the query whose
    object does not carry {!Data.t.strict_match}.  A successful lookup
    refreshes recency and increments [access_count].  Stale entries
    (per {!Data.t.freshness_ms}) are expired, not returned.

    A per-length count of the cached names answers a non-exact lookup
    that misses the exact name at once when no cached name is longer
    than the query: the only candidate extension is then the query
    itself.  Otherwise extension matching uses a prefix index of the
    cached names.  It is built on the first non-exact lookup that could
    find a longer name and maintained from then on ({!clear} drops it),
    so a store probed only with [~exact:true], or only with names no
    shorter than any it caches, never pays for it.  The answers do not
    depend on when it was built. *)

val find_exact : 'meta t -> now:float -> Name.t -> 'meta entry
(** Exact-name lookup with the same side effects as
    [lookup ~exact:true] — counters, recency refresh, expiry of a stale
    entry, tracing — but returning the entry directly.
    @raise Not_found on a miss (counted and traced as such).

    This is the hot-path variant: with tracing disabled it performs no
    minor-heap allocation at all (one {!Name_index} probe, and the LRU
    move-to-front relinks int arrays).  The [bench core] CS-hit
    benchmark asserts this.  {!lookup} returns a hit's entry in the
    [Some] cell built at insert, so it allocates no option either. *)

val peek : 'meta t -> Name.t -> 'meta entry option
(** Exact lookup with no side effects: no recency update, no hit count,
    no expiry. *)

val mem : 'meta t -> Name.t -> bool

val remove : 'meta t -> Name.t -> unit

val set_meta : 'meta t -> Name.t -> 'meta -> bool
(** Update an entry's metadata in place; [false] if not cached. *)

val size : 'meta t -> int

val capacity : 'meta t -> int
(** [0] when unbounded. *)

val policy : 'meta t -> Eviction.t

val clear : 'meta t -> unit

val flush : 'meta t -> now:float -> unit
(** {!clear}, traced: emits one [cs.flush] record carrying the number
    of entries dropped.  The crash path of fault injection — a router
    reboot loses its whole Content Store at once, and the trace should
    say so rather than show [size] silent evictions. *)

val fold : 'meta t -> init:'acc -> f:('acc -> 'meta entry -> 'acc) -> 'acc

type counters = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  expirations : int;
}

val counters : 'meta t -> counters

val pp_counters : Format.formatter -> counters -> unit
