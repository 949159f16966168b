(** An open-addressing map from {!Name.t} to a non-negative int slot.

    The exact-name index behind the Content Store and the PIT: each
    store keeps its entries in slot arrays and asks this map which slot
    holds a name.  The table is two flat arrays — the names, and one
    int per cell holding the slot beside the name's memoised
    {!Name.hash} — probed linearly from the hash's low bits, so a probe
    compares ints first and follows no bucket list.
    It grows by doubling when more than half full, and {!remove}
    shifts the rest of the probe run back into the hole, so deletes
    leave no tombstones and a miss stops at the first empty cell.

    The map also counts its names by {!Name.length}, so a store can ask
    which lengths are held ({!has_length}, {!has_longer}) without a
    probe.

    {!find}, {!replace} of a bound name, {!remove} and the census
    queries allocate nothing; {!replace} allocates only when it grows
    the table or binds a name longer than any bound before. *)

type t

val create : unit -> t
(** An empty map of eight cells, which holds four names before it
    grows. *)

val length : t -> int

val find : t -> Name.t -> int
(** The slot bound to the name, or [-1] when it is unbound. *)

val mem : t -> Name.t -> bool

val has_length : t -> int -> bool
(** Is some bound name [n] components long? *)

val has_longer : t -> Name.t -> bool
(** Is some bound name longer than this one? *)

val replace : t -> Name.t -> int -> unit
(** Bind a name to a slot, replacing any previous binding.  Slots must
    be below 2{^32}.
    @raise Invalid_argument if the slot is negative. *)

val remove : t -> Name.t -> unit
(** Unbind a name; no-op if unbound. *)

val clear : t -> unit
(** Drop every binding, keeping the table's size; the census reads
    zero at every length. *)
