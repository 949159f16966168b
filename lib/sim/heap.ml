(* Struct-of-arrays 4-ary min-heap.  Keys are (time, seq); [seq] breaks
   ties deterministically — and because (time, seq) is a total order,
   pop order is independent of the internal layout (arity included):
   any correct heap yields the same event sequence, which is what the
   byte-identity trace suites pin down.

   Layout.  Five parallel arrays replace the old boxed
   [(float * int * 'a)] entry records:

     times   : float array   -- unboxed keys, the array the sifts read
     seqs    : int array     -- tie-breakers
     slot_of : int array     -- heap position -> element slot
     pos_of  : int array     -- live slot -> heap position;
                                free slot -> next free slot (or -1)
     elts    : 'a array      -- slot -> element, NEVER moved by a sift

   The [slot_of] indirection is the load-bearing trick: a sift permutes
   only floats and ints, so the inner loops compile to pure unboxed
   arithmetic — no write barrier ([caml_modify]) and no polymorphic-array
   representation dispatch per level, which is where a pointer-carrying
   heap spends most of its pop.  An element is written into [elts] once
   at [add] (one generic-array store) and read once at pop.

   [pos_of] is the inverse index: every sift step that moves an entry
   also records its new position, so [remove_writing_time] finds a
   slot's entry in O(1) and takes it out with one sift, O(log n).  The
   free-slot stack is threaded through the same array: a retired slot's
   [pos_of] entry holds the next retired slot, and [free] is the stack's
   head.  A separate stack array beside [pos_of] costs one more array
   per heap for nothing — a slot is either live or free, never both.
   [size] slots are live, so a fresh slot is available at index [size]
   whenever the free stack is empty.

   The sift helpers take a position, not a key: the entry to settle is
   first written at that position and read back inside the helper.
   Without flambda a float argument to a function that is not inlined
   is boxed, so a helper taking the key would allocate on every pop.

   Why 4-ary: a pop sifts the displaced last key down ~log_d(n) levels.
   Quadrupling the fan-out halves the level count for the same total
   number of comparisons (4-ary: up to 3 child-vs-child + 1
   child-vs-item per level, binary: 1 + 1 over twice the levels), and
   the four children's keys share a cache line of [times].

   The sift loops use unsafe array accesses: every index is either a
   parent ((i-1)/4 <= i), a child bounded by an explicit [l >= size] /
   [hi] clamp, a position below [size], or a slot read from [slot_of]
   below [size], and all parallel arrays share one capacity ([grow]
   resizes them together) — the bounds checks the compiler would insert
   are provably dead, and at several accesses per level they are
   measurable.

   [elts] needs a filler value for unused slots; the first element ever
   added serves as the witness.  One consequence, accepted
   deliberately: a popped or removed element stays reachable from its
   retired slot until the slot is reused by a later [add] (or [clear] is
   called).  For the simulator's recycled event handles this retention
   is harmless. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slot_of : int array;
  mutable pos_of : int array;
  mutable elts : 'a array;
  mutable free : int;
  mutable size : int;
}

let create () =
  { times = [||]; seqs = [||]; slot_of = [||]; pos_of = [||]; elts = [||]; free = -1; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* When [size] reaches the capacity every slot is live, so the free
   stack is empty and [pos_of] holds positions only. *)
let grow t witness =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let ntimes = Array.make ncap 0. in
    let nseqs = Array.make ncap 0 in
    let nslot_of = Array.make ncap 0 in
    let npos_of = Array.make ncap 0 in
    let nelts = Array.make ncap witness in
    Array.blit t.times 0 ntimes 0 t.size;
    Array.blit t.seqs 0 nseqs 0 t.size;
    Array.blit t.slot_of 0 nslot_of 0 t.size;
    Array.blit t.pos_of 0 npos_of 0 cap;
    Array.blit t.elts 0 nelts 0 cap;
    t.times <- ntimes;
    t.seqs <- nseqs;
    t.slot_of <- nslot_of;
    t.pos_of <- npos_of;
    t.elts <- nelts
  end

(* Hole-based sift-up of the entry at position [i]: shift larger
   parents down into the hole, then store the entry once at its final
   position. *)
(* ndnlint: hot *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and slot_of = t.slot_of and pos_of = t.pos_of in
  let time = Array.unsafe_get times i in
  let seq = Array.unsafe_get seqs i in
  let slot = Array.unsafe_get slot_of i in
  let i = ref i in
  let continue = ref (!i > 0) in
  while !continue do
    let parent = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      let ps = Array.unsafe_get slot_of parent in
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slot_of !i ps;
      Array.unsafe_set pos_of ps !i;
      i := parent;
      continue := !i > 0
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slot_of !i slot;
  Array.unsafe_set pos_of slot !i

(* Hole-based sift-down of the entry at position [i]: the key displaced
   from the last position after a pop or a remove, or the new key of a
   [replace_min]. *)
(* ndnlint: hot *)
let sift_down t i =
  let times = t.times and seqs = t.seqs and slot_of = t.slot_of and pos_of = t.pos_of in
  let size = t.size in
  let time = Array.unsafe_get times i in
  let seq = Array.unsafe_get seqs i in
  let slot = Array.unsafe_get slot_of i in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (!i lsl 2) + 1 in
    if l >= size then continue := false
    else begin
      (* Smallest of the up-to-four children. *)
      let c = ref l in
      let hi = l + 3 in
      let hi = if hi < size then hi else size - 1 in
      for j = l + 1 to hi do
        let jt = Array.unsafe_get times j in
        let ct = Array.unsafe_get times !c in
        if
          jt < ct
          || (jt = ct && Array.unsafe_get seqs j < Array.unsafe_get seqs !c)
        then c := j
      done;
      let c = !c in
      let ct = Array.unsafe_get times c in
      if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
        let cs = Array.unsafe_get slot_of c in
        Array.unsafe_set times !i ct;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set slot_of !i cs;
        Array.unsafe_set pos_of cs !i;
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slot_of !i slot;
  Array.unsafe_set pos_of slot !i

(* Claim a slot for [x] and open position [size] for it, leaving the
   position's time key for the caller to write.  With the free stack
   empty, all [size] slots below the high-water mark are live, so slot
   [size] is fresh. *)
let claim t x =
  grow t x;
  let slot =
    if t.free >= 0 then begin
      let s = t.free in
      t.free <- Array.unsafe_get t.pos_of s;
      s
    end
    else t.size
  in
  Array.unsafe_set t.elts slot x;
  slot

(* Enter the claimed [slot] at position [size], whose time key is
   already written, and sift it into place. *)
let enter t ~seq slot =
  let i = t.size in
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.slot_of i slot;
  t.size <- i + 1;
  sift_up t i;
  slot

(* ndnlint: hot *)
let add t ~time ~seq x =
  let slot = claim t x in
  Array.unsafe_set t.times t.size time;
  enter t ~seq slot

(* ndnlint: hot *)
let add_reading_time t ~time_from ~seq x =
  let slot = claim t x in
  Array.unsafe_set t.times t.size time_from.(0);
  enter t ~seq slot

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get t.times 0

(* Bound test without the boxed-float return of [min_time]: does the
   minimum key's time lie at or before [limit]?  [false] on an empty
   heap. *)
(* ndnlint: hot *)
let min_before t limit = t.size > 0 && Array.unsafe_get t.times 0 <= limit

let min_seq t =
  if t.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  Array.unsafe_get t.seqs 0

(* Retire [slot] onto the free stack and move the last entry into the
   vacated position [i]; the caller sifts it. *)
let vacate t slot i =
  Array.unsafe_set t.pos_of slot t.free;
  t.free <- slot;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    Array.unsafe_set t.times i (Array.unsafe_get t.times last);
    Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs last);
    Array.unsafe_set t.slot_of i (Array.unsafe_get t.slot_of last)
  end;
  i < last

(* ndnlint: hot *)
let pop_min_elt t =
  if t.size = 0 then invalid_arg "Heap.pop_min_elt: empty heap";
  let slot = Array.unsafe_get t.slot_of 0 in
  let x = Array.unsafe_get t.elts slot in
  if vacate t slot 0 then sift_down t 0;
  x

(* The entry moved into a removed entry's position may belong above it
   (it came from another subtree) or below it, never both: sift it
   down only if sifting up left it in place. *)
(* ndnlint: hot *)
let remove_writing_time t slot ~time_into =
  let i = if slot >= 0 && slot < Array.length t.pos_of then t.pos_of.(slot) else -1 in
  (* A free slot's [pos_of] is the next free slot, and a free slot
     never appears in [slot_of] below [size]: the round trip rejects
     it. *)
  if i < 0 || i >= t.size || Array.unsafe_get t.slot_of i <> slot then
    invalid_arg "Heap.remove_writing_time: slot not live";
  time_into.(0) <- Array.unsafe_get t.times i;
  if vacate t slot i then begin
    let moved = Array.unsafe_get t.slot_of i in
    sift_up t i;
    if Array.unsafe_get t.pos_of moved = i then sift_down t i
  end

(* The element with the smallest key, left in place, with its time
   written into [time_into.(0)].  The engine's dispatch peeks through
   this: its virtual clock is such an array, and the fused store moves
   the time without the cross-module boxed-float return a separate
   [min_time] call costs on the hottest path in the simulator. *)
(* ndnlint: hot *)
let min_elt_writing_time t ~time_into =
  if t.size = 0 then invalid_arg "Heap.min_elt_writing_time: empty heap";
  time_into.(0) <- Array.unsafe_get t.times 0;
  Array.unsafe_get t.elts (Array.unsafe_get t.slot_of 0)

(* ndnlint: hot *)
let replace_min t ~time_from ~seq x =
  if t.size = 0 then invalid_arg "Heap.replace_min: empty heap";
  let slot = Array.unsafe_get t.slot_of 0 in
  Array.unsafe_set t.elts slot x;
  Array.unsafe_set t.times 0 time_from.(0);
  Array.unsafe_set t.seqs 0 seq;
  sift_down t 0;
  slot

let pop_min t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) in
    let x = pop_min_elt t in
    Some (time, seq, x)
  end

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.slot_of <- [||];
  t.pos_of <- [||];
  t.elts <- [||];
  t.free <- -1;
  t.size <- 0
