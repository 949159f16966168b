(* Struct-of-arrays 4-ary min-heap.  Keys are (time, seq); [seq] breaks
   ties deterministically — and because (time, seq) is a total order,
   pop order is independent of the internal layout (arity included):
   any correct heap yields the same event sequence, which is what the
   byte-identity trace suites pin down.

   Layout.  Four parallel arrays replace the old boxed
   [(float * int * 'a)] entry records:

     times   : float array   -- unboxed keys, the array the sifts read
     seqs    : int array     -- tie-breakers
     slot_of : int array     -- heap position -> element slot
     elts    : 'a array      -- slot -> element, NEVER moved by a sift

   The extra [slot_of] indirection is the load-bearing trick: a sift
   permutes only floats and ints, so the inner loops compile to pure
   unboxed arithmetic — no write barrier ([caml_modify]) and no
   polymorphic-array representation dispatch per level, which is where
   a pointer-carrying heap spends most of its pop.  An element is
   written into [elts] once at [add] (one generic-array store) and read
   once at pop; its slot is recycled through [free_slots], an int
   stack.  [size] slots are always live, so a fresh slot is available
   at index [size] whenever the free stack is empty.

   Why 4-ary: a pop sifts the displaced last key down ~log_d(n) levels.
   Quadrupling the fan-out halves the level count for the same total
   number of comparisons (4-ary: up to 3 child-vs-child + 1
   child-vs-item per level, binary: 1 + 1 over twice the levels), and
   the four children's keys share a cache line of [times].

   The sift loops use unsafe array accesses: every index is either a
   parent ((i-1)/4 <= i), a child bounded by an explicit [l >= size] /
   [hi] clamp, or [size - 1] after a non-empty check, and all parallel
   arrays share one capacity ([grow] resizes them together) — the
   bounds checks the compiler would insert are provably dead, and at
   several accesses per level they are measurable.

   [elts] needs a filler value for unused slots; the first element ever
   added serves as the witness.  One consequence, accepted
   deliberately: a popped element stays reachable from its retired slot
   until the slot is reused by a later [add] (or [clear] is called).
   For the simulator's recycled event handles this retention is
   harmless. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slot_of : int array;
  mutable elts : 'a array;
  mutable free_slots : int array;
  mutable free_len : int;
  mutable size : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    slot_of = [||];
    elts = [||];
    free_slots = [||];
    free_len = 0;
    size = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let grow t witness =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let ntimes = Array.make ncap 0. in
    let nseqs = Array.make ncap 0 in
    let nslot_of = Array.make ncap 0 in
    let nelts = Array.make ncap witness in
    let nfree = Array.make ncap 0 in
    Array.blit t.times 0 ntimes 0 t.size;
    Array.blit t.seqs 0 nseqs 0 t.size;
    Array.blit t.slot_of 0 nslot_of 0 t.size;
    Array.blit t.elts 0 nelts 0 cap;
    Array.blit t.free_slots 0 nfree 0 t.free_len;
    t.times <- ntimes;
    t.seqs <- nseqs;
    t.slot_of <- nslot_of;
    t.elts <- nelts;
    t.free_slots <- nfree
  end

(* Hole-based sift-up: shift larger parents down into the hole, then
   store (time, seq, slot) once at its final position. *)
(* ndnlint: hot *)
let add t ~time ~seq x =
  grow t x;
  (* [size] live slots + [free_len] retired ones never exceeds the
     high-water mark, so when the free stack is empty slot [size] is
     fresh. *)
  let slot =
    if t.free_len > 0 then begin
      let fl = t.free_len - 1 in
      t.free_len <- fl;
      Array.unsafe_get t.free_slots fl
    end
    else t.size
  in
  Array.unsafe_set t.elts slot x;
  let times = t.times and seqs = t.seqs and slot_of = t.slot_of in
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref (!i > 0) in
  while !continue do
    let parent = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slot_of !i (Array.unsafe_get slot_of parent);
      i := parent;
      continue := !i > 0
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slot_of !i slot

(* Hole-based sift-down from the root of a (time, seq, slot): the key
   displaced from the last position after a pop, or the new key of a
   [replace_min]. *)
(* ndnlint: hot *)
let sift_down_from_root t time seq slot =
  let times = t.times and seqs = t.seqs and slot_of = t.slot_of in
  let size = t.size in
  let i = ref 0 in
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
        Array.unsafe_set times !i ct;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set slot_of !i (Array.unsafe_get slot_of c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slot_of !i slot

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

(* ndnlint: hot *)
let pop_min_elt t =
  if t.size = 0 then invalid_arg "Heap.pop_min_elt: empty heap";
  let slot = Array.unsafe_get t.slot_of 0 in
  let x = Array.unsafe_get t.elts slot in
  Array.unsafe_set t.free_slots t.free_len slot;
  t.free_len <- t.free_len + 1;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down_from_root t
      (Array.unsafe_get t.times last)
      (Array.unsafe_get t.seqs last)
      (Array.unsafe_get t.slot_of last);
  x

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
let replace_min t ~time ~seq x =
  if t.size = 0 then invalid_arg "Heap.replace_min: empty heap";
  let slot = Array.unsafe_get t.slot_of 0 in
  Array.unsafe_set t.elts slot x;
  sift_down_from_root t time seq slot

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
  t.elts <- [||];
  t.free_slots <- [||];
  t.free_len <- 0;
  t.size <- 0
