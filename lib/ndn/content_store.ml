type counters = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  expirations : int;
}

(* Entries live in slot arrays, and [index] maps each cached name to its
   slot.  A slot holds the object's own [Some] cell, built once at
   insert, so a lookup hit returns it without allocating; the object
   carries the name.  The insertion time and the hit count sit in a
   float array and an int array beside it, so an entry has no record
   and no boxed float of its own: the [Some] cell is its only block.
   The recency list runs through the [prev]/[next] int arrays: the
   head is the most recently used/inserted end, and eviction for
   LRU/FIFO takes the tail.  Free slots form a stack threaded through
   [next] from [free]; the slot arrays grow by doubling, never past a
   bounded store's capacity. *)
type t = {
  policy : Eviction.t;
  capacity : int; (* 0 = unbounded *)
  rng : Sim.Rng.t option;
  tracer : Sim.Trace.t;
  owner : string; (* label of the node this store belongs to *)
  index : Name_index.t;
  mutable cells : Data.t option array; (* [None] when free *)
  mutable inserted_at : float array;
  mutable hit_counts : int array; (* lookup hits on the entry *)
  mutable prev : int array; (* -1: none *)
  mutable next : int array;
  mutable head : int;
  mutable tail : int;
  mutable free : int; (* top of the free-slot stack, -1: empty *)
  (* Prefix index for NDN extension matching, built from the cached
     names on the first non-exact lookup that could find a longer name,
     and maintained only while [indexed]: a store whose queries never
     have a longer cached name (the trace replay, a tree of equal-depth
     names) never pays for a second index operation on insert and
     evict. *)
  prefixes : unit Name_trie.t;
  mutable indexed : bool;
  (* LFU: lazy min-heap of (count-at-push, seq, name). Stale tops are
     re-pushed with their current count. *)
  lfu_heap : Name.t Sim.Heap.t;
  mutable lfu_seq : int;
  (* Random replacement: the cached slots packed in [rand.(0 ..
     rand_len - 1)], in insertion order with swap-remove, and each
     slot's position there.  Other policies leave both empty. *)
  mutable rand : int array;
  mutable rand_pos : int array;
  mutable rand_len : int;
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable expirations : int;
}

let create ?(policy = Eviction.Lru) ?rng ?(tracer = Sim.Trace.disabled)
    ?(owner = "") ~capacity () =
  (match (policy, rng) with
  | Eviction.Random_replacement, None ->
    invalid_arg "Content_store.create: random replacement needs an rng"
  | _ -> ());
  {
    policy;
    capacity = (if capacity < 0 then 0 else capacity);
    rng;
    tracer;
    owner;
    index = Name_index.create ();
    cells = [||];
    inserted_at = [||];
    hit_counts = [||];
    prev = [||];
    next = [||];
    head = -1;
    tail = -1;
    free = -1;
    prefixes = Name_trie.create ();
    indexed = false;
    lfu_heap = Sim.Heap.create ();
    lfu_seq = 0;
    rand = [||];
    rand_pos = [||];
    rand_len = 0;
    lookups = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    expirations = 0;
  }

(* Every CS record carries the owning node's label and the eviction
   policy, so a mixed-policy topology stays attributable in the trace.
   Call sites on hot paths guard with [Sim.Trace.enabled] *before*
   building the attrs list, so a disabled tracer costs one load and one
   branch — and zero allocation. *)
let trace t ~now kind name attrs =
  Sim.Trace.emit t.tracer
    {
      Sim.Trace.time = now;
      node = t.owner;
      kind;
      name = Name.to_string name;
      attrs = ("policy", Eviction.to_string t.policy) :: attrs;
    }

let size t = Name_index.length t.index

let capacity t = t.capacity

let policy t = t.policy

(* --- slots --- *)

let release_slot t s =
  t.cells.(s) <- None;
  t.next.(s) <- t.free;
  t.free <- s

(* Double the slot arrays (at least 8 slots, at most the capacity of a
   bounded store unless it is already full) and stack the new slots,
   lowest on top. *)
let grow t =
  let old = Array.length t.cells in
  let n = Int.max 8 (2 * old) in
  let n = if t.capacity > 0 then Int.max (old + 1) (Int.min t.capacity n) else n in
  let more fill = Array.make (n - old) fill in
  t.cells <- Array.append t.cells (more None);
  t.inserted_at <- Array.append t.inserted_at (more 0.);
  t.hit_counts <- Array.append t.hit_counts (more 0);
  t.prev <- Array.append t.prev (more (-1));
  t.next <- Array.append t.next (more (-1));
  if t.policy = Eviction.Random_replacement then
    t.rand_pos <- Array.append t.rand_pos (more (-1));
  for s = n - 1 downto old do
    release_slot t s
  done

let alloc_slot t =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  s

(* The object in a live slot, and its name. *)
let data_of t s = match Array.unsafe_get t.cells s with Some d -> d | None -> assert false

let name_of t s = (data_of t s).Data.name

(* --- recency list (int arrays: no allocation, no write barrier) --- *)

let detach t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p;
  t.prev.(s) <- -1;
  t.next.(s) <- -1

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

(* --- random-replacement positions --- *)

let rand_add t s =
  if t.rand_len = Array.length t.rand then
    t.rand <- Array.append t.rand (Array.make (Int.max 16 t.rand_len) (-1));
  t.rand.(t.rand_len) <- s;
  t.rand_pos.(s) <- t.rand_len;
  t.rand_len <- t.rand_len + 1

let rand_remove t s =
  let i = t.rand_pos.(s) in
  let last = t.rand_len - 1 in
  if i <> last then begin
    let moved = t.rand.(last) in
    t.rand.(i) <- moved;
    t.rand_pos.(moved) <- i
  end;
  t.rand_len <- last

(* --- removal core --- *)

let remove_slot t s =
  let name = name_of t s in
  Name_index.remove t.index name;
  if t.indexed then Name_trie.remove t.prefixes name;
  detach t s;
  if t.policy = Eviction.Random_replacement then rand_remove t s;
  release_slot t s

let remove t name =
  let s = Name_index.find t.index name in
  if s >= 0 then remove_slot t s

(* --- eviction --- *)

let rec pop_lfu_victim t =
  match Sim.Heap.pop_min t.lfu_heap with
  | None -> -1
  | Some (pushed_count, _seq, name) ->
    let s = Name_index.find t.index name in
    if s < 0 then pop_lfu_victim t (* entry already gone: stale heap item *)
    else
      let current = float_of_int t.hit_counts.(s) in
      if current > pushed_count then begin
        (* Count advanced since the push: re-queue at the new priority. *)
        ignore (Sim.Heap.add t.lfu_heap ~time:current ~seq:t.lfu_seq name);
        t.lfu_seq <- t.lfu_seq + 1;
        pop_lfu_victim t
      end
      else s

(* The victim's slot, or -1 when the policy offers none. *)
let choose_victim t =
  match t.policy with
  | Eviction.Lru | Eviction.Fifo -> t.tail
  | Eviction.Lfu -> pop_lfu_victim t
  | Eviction.Random_replacement ->
    if t.rand_len = 0 then -1
    else
      let rng = Option.get t.rng in
      t.rand.(Sim.Rng.int rng t.rand_len)

(* Returns whether a victim was actually evicted, so [insert]'s
   make-room loop can stop when the policy has nothing left to offer
   (e.g. a desynchronized LFU heap) instead of spinning forever. *)
let evict_one t ~now =
  let s = choose_victim t in
  if s < 0 then false
  else begin
    let name = name_of t s in
    remove_slot t s;
    t.evictions <- t.evictions + 1;
    if Sim.Trace.enabled t.tracer then
      trace t ~now Sim.Trace.Cs_evict name [ ("size", string_of_int (size t)) ];
    true
  end

(* --- public operations --- *)

let insert t ~now data () =
  let name = data.Data.name in
  (* Refresh rather than duplicate. *)
  remove t name;
  if t.capacity > 0 then begin
    let evictable = ref true in
    while !evictable && size t >= t.capacity do
      evictable := evict_one t ~now
    done
  end;
  let s = alloc_slot t in
  t.cells.(s) <- Some data;
  t.inserted_at.(s) <- now;
  t.hit_counts.(s) <- 0;
  Name_index.replace t.index name s;
  if t.indexed then Name_trie.add t.prefixes name ();
  push_front t s;
  if t.policy = Eviction.Lfu then begin
    ignore (Sim.Heap.add t.lfu_heap ~time:0. ~seq:t.lfu_seq name);
    t.lfu_seq <- t.lfu_seq + 1
  end;
  if t.policy = Eviction.Random_replacement then rand_add t s;
  t.insertions <- t.insertions + 1;
  if Sim.Trace.enabled t.tracer then
    trace t ~now Sim.Trace.Cs_insert name [ ("size", string_of_int (size t)) ]

(* Inline freshness test ([Data.is_fresh] unfolded) so the age stays in
   float registers on the lookup path. *)
(* ndnlint: hot *)
let is_stale t s d ~now =
  match d.Data.freshness_ms with
  | None -> false
  | Some f -> now -. Array.unsafe_get t.inserted_at s > f

let expire_slot t ~now s =
  let name = name_of t s and inserted_at = t.inserted_at.(s) in
  remove_slot t s;
  t.expirations <- t.expirations + 1;
  if Sim.Trace.enabled t.tracer then
    trace t ~now Sim.Trace.Cs_expire name
      [ ("age_ms", Printf.sprintf "%.6f" (now -. inserted_at)) ]

(* ndnlint: hot *)
let touch t s =
  Array.unsafe_set t.hit_counts s (Array.unsafe_get t.hit_counts s + 1);
  (* Matching instead of [t.policy = Eviction.Lru]: a generic
     structural compare on the policy variant would call caml_equal on
     every hit. *)
  match t.policy with
  | Eviction.Lru ->
    detach t s;
    push_front t s
  | _ -> ()

(* The counted miss, shared by both lookup flavours. *)
(* ndnlint: hot *)
let count_miss t ~now name =
  t.misses <- t.misses + 1;
  if Sim.Trace.enabled t.tracer then trace t ~now Sim.Trace.Cs_miss name []

(* ndnlint: hot *)
let miss t ~now name =
  count_miss t ~now name;
  raise Not_found

(* The counted hit exit: refresh recency, count, trace. *)
(* ndnlint: hot *)
let hit t ~now s d =
  touch t s;
  t.hits <- t.hits + 1;
  if Sim.Trace.enabled t.tracer then
    trace t ~now Sim.Trace.Cs_hit d.Data.name
      [ ("count", string_of_int t.hit_counts.(s)) ]

(* ndnlint: hot *)
let find_exact t ~now name =
  t.lookups <- t.lookups + 1;
  let s = Name_index.find t.index name in
  if s < 0 then miss t ~now name
  else
    let d = data_of t s in
    if is_stale t s d ~now then begin
      expire_slot t ~now s;
      miss t ~now name
    end
    else begin
      hit t ~now s d;
      d
    end

(* Index every cached name, walking the recency list so the build
   order is deterministic; the trie is a set, so any order gives the
   same index. *)
let build_index t =
  let s = ref t.head in
  while !s >= 0 do
    Name_trie.add t.prefixes (name_of t !s) ();
    s := t.next.(!s)
  done;
  t.indexed <- true

(* NDN prefix semantics: any cached extension of the interest name can
   satisfy it — unless the object demands strict matching
   (unpredictable-name content, paper footnote 5).  Called once the
   exact name has missed and the index's census has reported a longer
   name.
   The first such extension's slot, or -1. *)
let find_extension t name =
  if not t.indexed then build_index t;
  Name_trie.fold_subtree t.prefixes name ~init:(-1) ~f:(fun acc n () ->
      if acc >= 0 then acc
      else
        let s = Name_index.find t.index n in
        if s >= 0 && not (data_of t s).Data.strict_match then s else -1)

(* A non-exact lookup: the exact name, else an extension.  A stale
   answer is expired and the search repeated.  With no longer name
   cached, the only possible extension is the query itself, which the
   index has just missed, so the miss is answered without the prefix
   index.  A top-level function, so a call builds no closure. *)
let rec lookup_matching t ~now name =
  let s = Name_index.find t.index name in
  let s = if s < 0 && Name_index.has_longer t.index name then find_extension t name else s in
  if s < 0 then begin
    count_miss t ~now name;
    None
  end
  else
    let d = data_of t s in
    if is_stale t s d ~now then begin
      expire_slot t ~now s;
      lookup_matching t ~now name
    end
    else begin
      hit t ~now s d;
      Array.unsafe_get t.cells s
    end

let lookup t ~now ?(exact = false) name =
  if exact then
    match find_exact t ~now name with
    | d -> Some d
    | exception Not_found -> None
  else begin
    t.lookups <- t.lookups + 1;
    lookup_matching t ~now name
  end

let peek t name =
  let s = Name_index.find t.index name in
  if s < 0 then None else t.cells.(s)

let mem t name = Name_index.mem t.index name

let inserted_at t name =
  let s = Name_index.find t.index name in
  if s < 0 then None else Some t.inserted_at.(s)

let hit_count t name =
  let s = Name_index.find t.index name in
  if s < 0 then None else Some t.hit_counts.(s)

let clear t =
  Name_index.clear t.index;
  t.cells <- [||];
  t.inserted_at <- [||];
  t.hit_counts <- [||];
  t.prev <- [||];
  t.next <- [||];
  t.head <- -1;
  t.tail <- -1;
  t.free <- -1;
  Name_trie.clear t.prefixes;
  t.indexed <- false;
  Sim.Heap.clear t.lfu_heap;
  t.rand_pos <- [||];
  t.rand_len <- 0

let flush t ~now =
  let dropped = size t in
  clear t;
  if Sim.Trace.enabled t.tracer then
    trace t ~now Sim.Trace.Cs_flush Name.root
      [ ("dropped", string_of_int dropped) ]

let fold t ~init ~f =
  let rec go acc s = if s < 0 then acc else go (f acc (data_of t s)) t.next.(s) in
  go init t.head

let counters t =
  {
    lookups = t.lookups;
    hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    evictions = t.evictions;
    expirations = t.expirations;
  }
