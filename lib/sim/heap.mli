(** 4-ary min-heap keyed by [(float, int)] pairs, stored
    struct-of-arrays with slot indirection, removable by slot.

    The event queue of the simulator: the float key is virtual time, the
    integer key is an insertion sequence number used to break ties so
    that events scheduled for the same instant fire in FIFO order.
    Because [(time, seq)] is a total order, pop order is independent of
    the internal layout (arity included) — any correct heap yields the
    same event sequence.

    Layout: parallel arrays — a flat (unboxed) [float array] of times,
    an [int array] of sequence numbers, an [int array] mapping heap
    positions to stable element slots and its inverse, from each live
    slot to its heap position — grown by amortized doubling.  Elements
    live in a slot-indexed array and are never moved by a sift, so the
    sift loops permute only unboxed floats and ints (no write barriers,
    no polymorphic-array dispatch).  A slot is stable while its element
    is queued: {!add} and {!replace_min} return it, and
    {!remove_writing_time} takes the element out by it in O(log n).
    Retired slots form a free stack threaded through the inverse index
    (a free slot's entry holds the next free slot).  [add],
    [add_reading_time], [pop_min_elt], [remove_writing_time],
    [min_elt_writing_time], [replace_min] and [min_time]/[min_before]
    allocate nothing; only the tuple-returning {!pop_min} boxes its
    result.  A popped or removed element may remain reachable from its
    retired slot until the slot is reused by a later [add] or [clear].

    The engine dispatches by peeking ({!min_elt_writing_time}) and then
    either dropping the root ({!pop_min_elt}) or handing its slot to
    the next event ({!replace_min}), so most events cost one sift; a
    cancelled event leaves through {!remove_writing_time}. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int
(** Number of queued elements. *)

val is_empty : 'a t -> bool

val add : 'a t -> time:float -> seq:int -> 'a -> int
(** Insert an element with the given priority key and return its slot,
    stable until the element leaves the heap.  Allocation-free except
    when the backing arrays double. *)

val add_reading_time : 'a t -> time_from:float array -> seq:int -> 'a -> int
(** {!add} with the time key read from [time_from.(0)]: a caller that
    keeps a time in a float array hands it over without the boxed float
    a [~time] argument costs across modules.  [time_from] must have
    length [>= 1]. *)

val remove_writing_time : 'a t -> int -> time_into:float array -> unit
(** [remove_writing_time t slot ~time_into] takes the element in [slot]
    out of the heap, in one sift, and writes its time key into
    [time_into.(0)].  The slot is retired as by a pop.  Allocation-free.
    @raise Invalid_argument when [slot] holds no queued element.
    [time_into] must have length [>= 1]. *)

val min_time : 'a t -> float
(** Time key of the minimum element.
    @raise Invalid_argument when empty. *)

val min_before : 'a t -> float -> bool
(** [min_before t limit] is [true] iff the heap is non-empty and the
    minimum element's time key is [<= limit].  The unboxed bound test
    behind [Engine.run ~until]'s stopping rule — no boxed-float return
    as with {!min_time} and no [option]. *)

val min_seq : 'a t -> int
(** Sequence key of the minimum element.
    @raise Invalid_argument when empty. *)

val pop_min_elt : 'a t -> 'a
(** Remove and return the element with the smallest key, without boxing
    the key (read it first via {!min_time}/{!min_seq} if needed).
    @raise Invalid_argument when empty. *)

val min_elt_writing_time : 'a t -> time_into:float array -> 'a
(** The element with the smallest key, left in the heap, with its time
    key written into [time_into.(0)].  Lets a caller whose clock is a
    one-element float array (the engine) receive the time without a
    cross-module boxed-float hand-off.  Allocation-free.
    @raise Invalid_argument when empty.  [time_into] must have length
    [>= 1]. *)

val replace_min : 'a t -> time_from:float array -> seq:int -> 'a -> int
(** [replace_min t ~time_from ~seq x] removes the minimum element and
    inserts [x] under the key [(time_from.(0), seq)], in one sift-down
    from the root — a {!pop_min_elt} followed by an {!add} sifts twice —
    and returns [x]'s slot, the one the old minimum held.  The new key
    may be smaller or larger than the old one.  The time is read from a
    float array, as with {!add_reading_time}.  Allocation-free.
    @raise Invalid_argument when empty.  [time_from] must have length
    [>= 1]. *)

val pop_min : 'a t -> (float * int * 'a) option
(** Remove and return the element with the smallest key, or [None] when
    empty. *)

val clear : 'a t -> unit
(** Remove all elements and release the backing arrays. *)
