(** Pending Interest Table.

    Records, per interest name, the downstream faces awaiting content.
    A second interest for a name already pending is *collapsed*: only
    the new arrival face is recorded and nothing is forwarded upstream
    (paper, Section II).  Collapsing is itself privacy-relevant: it is
    the reason a cache miss cannot be hidden, and it is observable by
    the timing adversary.

    The table may be given a finite {e capacity} — the resource an
    interest-flooding adversary exhausts — together with an admission
    policy deciding what happens when a new name arrives at a full
    table.  Without a capacity the table is unbounded and behaves
    exactly as it always has. *)

type t
(** Entries live in slot arrays behind a {!Name_index}. *)

(** What a full table does with a genuinely new name. *)
type admission =
  | Drop_new  (** Reject the newcomer; established entries survive. *)
  | Evict_oldest
      (** Displace the oldest live entry to admit the newcomer — the
          evicted downstream faces recover via their own timers. *)
  | Per_face_fair
      (** Each creating face gets an equal share of the table (at
          least one slot, [capacity / faces-seen]); a newcomer over
          its face's share is rejected.  Confines a single-face
          flooder to its quota. *)

val admission_to_string : admission -> string
(** ["drop-new"], ["evict-oldest"], ["per-face-fair"]. *)

val admission_of_string : string -> admission option
(** Inverse of {!admission_to_string} (also accepts underscores). *)

type insert_result =
  | Forward
      (** Forward the interest upstream: either no pending entry
          existed, or the arrival is a {e retransmission} — a new nonce
          from a face already waiting, i.e. a downstream consumer
          recovering from loss — which must be re-forwarded or recovery
          would stall for the rest of the entry's lifetime. *)
  | Collapsed  (** An entry existed: new face recorded, do not forward. *)
  | Duplicate
      (** Same face and nonce already pending (forwarding loop):
          drop. *)
  | Rejected
      (** The admission policy refused the new entry (finite table
          only): drop, optionally answering with a [Pit_full] NACK. *)

val create :
  ?lifetime_ms:float ->
  ?capacity:int ->
  ?admission:admission ->
  ?on_evict:(Name.t -> unit) ->
  unit ->
  t
(** [lifetime_ms] (default [4000.]) bounds how long an entry may stay
    pending before {!expire} removes it.  [capacity] (default:
    unbounded) bounds the live entry count; [admission] (default
    {!Drop_new}) only matters with a capacity.  [on_evict] fires once
    per entry displaced by {!Evict_oldest}, with the victim's name —
    the forwarder's tracing hook.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int option

val admission_policy : t -> admission

val insert : t -> now:float -> face:int -> nonce:int64 -> Name.t -> insert_result
(** [now] must be monotone non-decreasing across calls (it is the
    engine clock) — the expiry index relies on insertion order being
    expiry order. *)

val satisfy_timed : t -> Name.t -> int list
(** Faces awaiting an arriving Data packet with the given name — the
    union over every pending name that is a prefix of it — removing
    those entries.  Face order: registration order, duplicates
    removed.  The creation time of the oldest entry removed is kept
    for {!satisfied_created}; a single matching entry costs only the
    returned list. *)

val satisfied_created : t -> float
(** Creation time of the oldest entry the last {!satisfy_timed}
    removed, or [infinity] if it removed none.  The forwarder uses
    [now - created] as the measured fetch delay feeding the
    content-specific-delay countermeasure. *)

val take : t -> Name.t -> int list
(** Remove the exact-name entry, returning its faces (registration
    order, duplicates removed; [[]] if none).  Unlike {!satisfy_timed} this
    touches no other entry — the NACK path consumes exactly the entry
    being refused, so an unrelated pending prefix keeps waiting. *)

val pending : t -> Name.t -> bool
(** Is there an entry for exactly this name? *)

val faces : t -> Name.t -> int list
(** Faces of the exact-name entry, registration order ([[]] if none). *)

val expire : t -> now:float -> Name.t list
(** Drop entries older than the lifetime; returns their names in
    {!Name.compare} order.  Cost is O(expired + stale index slots
    popped), {e not} a scan of the live table: a FIFO expiry ring
    (insertion order = expiry order, since the lifetime is fixed and
    the clock monotone) is popped while its front is old enough, with
    stamp checks skipping pairs whose entries were satisfied or
    evicted early. *)

val sweep_useful : t -> now:float -> at:float -> bool
(** Could an {!expire} at time [at] drop anything: an entry live at
    [now], or one inserted from [now] on?  The oldest live entry
    decides, or [now] itself when the table is empty; [false] means a
    sweep at [at] would find nothing old enough.  The forwarder uses
    it to skip sweeps that cannot expire anything. *)

val evictions : t -> int
(** Entries displaced by {!Evict_oldest} since creation. *)

val rejections : t -> int
(** Inserts refused by the admission policy since creation. *)

val size : t -> int

val clear : t -> unit
