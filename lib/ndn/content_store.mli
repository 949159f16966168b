(** The router Content Store (CS): the shared cache whose observability
    is the subject of the paper. *)

type t
(** Entries live in slot arrays behind a {!Name_index}: each cached
    object in the [Some] cell built at its insert, its insertion time
    in a float array and its hit count in an int array.  The recency
    list is a pair of int arrays. *)

val create :
  ?policy:Eviction.t ->
  ?rng:Sim.Rng.t ->
  ?tracer:Sim.Trace.t ->
  ?owner:string ->
  capacity:int ->
  unit ->
  t
(** [capacity <= 0] means unbounded (the paper's "Inf" baseline).
    [policy] defaults to {!Eviction.Lru}.  [rng] is required only for
    {!Eviction.Random_replacement}.  When [tracer] (default
    {!Sim.Trace.disabled}) is enabled, the store emits [cs.hit],
    [cs.miss], [cs.insert], [cs.evict] and [cs.expire] records tagged
    with [owner] (the node label) and the eviction-policy name.
    @raise Invalid_argument if random replacement is requested without
    an [rng]. *)

val insert : t -> now:float -> Data.t -> unit -> unit
(** Cache a content object, evicting per policy when full.  Re-inserting
    an already-cached name refreshes the object and its insertion time
    and restarts its hit count.  The trailing [unit] is the slot where
    an entry's metadata once went; it stays so that callers written
    against that arity, the perfbench layer harness among them, keep
    compiling. *)

val lookup : t -> now:float -> ?exact:bool -> Name.t -> Data.t option
(** NDN cache matching for an interest name: an exact-name entry, or —
    unless [exact] — the smallest cached name extending the query whose
    object does not carry {!Data.t.strict_match}.  A successful lookup
    refreshes recency and increments the entry's {!hit_count}.  Stale entries
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

val find_exact : t -> now:float -> Name.t -> Data.t
(** Exact-name lookup with the same side effects as
    [lookup ~exact:true] — counters, recency refresh, expiry of a stale
    entry, tracing — but returning the object directly.
    @raise Not_found on a miss (counted and traced as such).

    This is the hot-path variant: with tracing disabled it performs no
    minor-heap allocation at all (one {!Name_index} probe, and the LRU
    move-to-front relinks int arrays).  The [bench core] CS-hit
    benchmark asserts this.  {!lookup} returns a hit's object in the
    [Some] cell built at insert, so it allocates no option either. *)

val peek : t -> Name.t -> Data.t option
(** Exact lookup with no side effects: no recency update, no hit count,
    no expiry. *)

val mem : t -> Name.t -> bool

val inserted_at : t -> Name.t -> float option
(** The virtual time the cached object of this exact name entered the
    store; [None] if not cached.  No side effects. *)

val hit_count : t -> Name.t -> int option
(** Lookup hits on the cached entry of this exact name since its
    insert; [None] if not cached.  No side effects. *)

val remove : t -> Name.t -> unit

val size : t -> int

val capacity : t -> int
(** [0] when unbounded. *)

val policy : t -> Eviction.t

val clear : t -> unit

val flush : t -> now:float -> unit
(** {!clear}, traced: emits one [cs.flush] record carrying the number
    of entries dropped.  The crash path of fault injection — a router
    reboot loses its whole Content Store at once, and the trace should
    say so rather than show [size] silent evictions. *)

val fold : t -> init:'acc -> f:('acc -> Data.t -> 'acc) -> 'acc
(** Folds over the cached objects in recency-list order: the most
    recently inserted (under LRU, inserted or hit) first. *)

type counters = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  expirations : int;
}

val counters : t -> counters
