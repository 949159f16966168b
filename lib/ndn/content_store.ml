type 'meta entry = {
  data : Data.t;
  inserted_at : float;
  mutable last_access : float;
  mutable access_count : int;
  mutable meta : 'meta;
}

(* Intrusive doubly-linked node: the list head is the most recently
   used/inserted end; eviction for LRU/FIFO takes the tail.  [self] is
   the node's own [Some] cell, allocated once at creation, so relinking
   on an LRU touch writes preallocated options instead of boxing fresh
   ones — the lookup hit path allocates nothing. *)
type 'meta node = {
  entry : 'meta entry;
  mutable prev : 'meta node option;
  mutable next : 'meta node option;
  self : 'meta node option;
}

type counters = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  expirations : int;
}

type 'meta t = {
  policy : Eviction.t;
  capacity : int; (* 0 = unbounded *)
  rng : Sim.Rng.t option;
  tracer : Sim.Trace.t;
  owner : string; (* label of the node this store belongs to *)
  table : 'meta node Name.Tbl.t;
  (* [census.(n)] counts the cached names of length [n].  A non-exact
     lookup that misses [table] has no other candidate unless some
     cached name is longer than the query, and the census answers that
     without the index below. *)
  mutable census : int array;
  (* Prefix index for NDN extension matching, built from [table] on the
     first non-exact lookup that could find a longer name, and
     maintained only while [indexed]: a store whose queries never have
     a longer cached name (the trace replay, a tree of equal-depth
     names) never pays for a second table operation on insert and
     evict. *)
  index : unit Name_trie.t;
  mutable indexed : bool;
  mutable head : 'meta node option;
  mutable tail : 'meta node option;
  (* LFU: lazy min-heap of (count-at-push, seq, name). Stale tops are
     re-pushed with their current count. *)
  lfu_heap : Name.t Sim.Heap.t;
  mutable lfu_seq : int;
  (* Random replacement: dense array of cached names + position map. *)
  mutable slots : Name.t array;
  mutable slots_len : int;
  slot_of : int Name.Tbl.t;
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
    table = Name.Tbl.create 256;
    census = [||];
    index = Name_trie.create ();
    indexed = false;
    head = None;
    tail = None;
    lfu_heap = Sim.Heap.create ();
    lfu_seq = 0;
    slots = [||];
    slots_len = 0;
    (* Only random replacement reads [slot_of]; other policies keep it
       at the minimum size so store creation stays cheap. *)
    slot_of =
      Name.Tbl.create (if policy = Eviction.Random_replacement then 256 else 16);
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

let size t = Name.Tbl.length t.table

let capacity t = t.capacity

let policy t = t.policy

(* --- intrusive list plumbing (allocation-free: only preallocated
   [self] cells and existing option values are ever written) --- *)

let detach t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with
  | Some h -> h.prev <- node.self
  | None -> t.tail <- node.self);
  t.head <- node.self

(* --- random-replacement slot array --- *)

let slots_add t name =
  if t.slots_len = Array.length t.slots then begin
    let ncap = max 16 (2 * Array.length t.slots) in
    let ns = Array.make ncap Name.root in
    Array.blit t.slots 0 ns 0 t.slots_len;
    t.slots <- ns
  end;
  t.slots.(t.slots_len) <- name;
  Name.Tbl.replace t.slot_of name t.slots_len;
  t.slots_len <- t.slots_len + 1

let slots_remove t name =
  match Name.Tbl.find_opt t.slot_of name with
  | None -> ()
  | Some i ->
    let last = t.slots_len - 1 in
    if i <> last then begin
      let moved = t.slots.(last) in
      t.slots.(i) <- moved;
      Name.Tbl.replace t.slot_of moved i
    end;
    t.slots_len <- last;
    Name.Tbl.remove t.slot_of name

(* --- length census --- *)

let census_add t name =
  let len = Name.length name in
  if len >= Array.length t.census then begin
    let census = Array.make (Int.max 8 (2 * len)) 0 in
    Array.blit t.census 0 census 0 (Array.length t.census);
    t.census <- census
  end;
  t.census.(len) <- t.census.(len) + 1

let rec any_from census n =
  n < Array.length census && (census.(n) > 0 || any_from census (n + 1))

(* Is any cached name longer than [name]? *)
(* ndnlint: hot *)
let has_longer t name = any_from t.census (Name.length name + 1)

(* --- removal core --- *)

let remove_node t node =
  let name = node.entry.data.Data.name in
  Name.Tbl.remove t.table name;
  let len = Name.length name in
  t.census.(len) <- t.census.(len) - 1;
  if t.indexed then Name_trie.remove t.index name;
  detach t node;
  if t.policy = Eviction.Random_replacement then slots_remove t name

let remove t name =
  match Name.Tbl.find_opt t.table name with
  | None -> ()
  | Some node -> remove_node t node

(* --- eviction --- *)

let rec pop_lfu_victim t =
  match Sim.Heap.pop_min t.lfu_heap with
  | None -> None
  | Some (pushed_count, _seq, name) -> (
    match Name.Tbl.find_opt t.table name with
    | None -> pop_lfu_victim t (* entry already gone: stale heap item *)
    | Some node ->
      let current = float_of_int node.entry.access_count in
      if current > pushed_count then begin
        (* Count advanced since the push: re-queue at the new priority. *)
        Sim.Heap.add t.lfu_heap ~time:current ~seq:t.lfu_seq name;
        t.lfu_seq <- t.lfu_seq + 1;
        pop_lfu_victim t
      end
      else Some node)

let choose_victim t =
  match t.policy with
  | Eviction.Lru | Eviction.Fifo -> t.tail
  | Eviction.Lfu -> pop_lfu_victim t
  | Eviction.Random_replacement ->
    if t.slots_len = 0 then None
    else
      let rng = Option.get t.rng in
      let name = t.slots.(Sim.Rng.int rng t.slots_len) in
      Name.Tbl.find_opt t.table name

(* Returns whether a victim was actually evicted, so [insert]'s
   make-room loop can stop when the policy has nothing left to offer
   (e.g. a desynchronized LFU heap) instead of spinning forever. *)
let evict_one t ~now =
  match choose_victim t with
  | None -> false
  | Some node ->
    remove_node t node;
    t.evictions <- t.evictions + 1;
    if Sim.Trace.enabled t.tracer then
      trace t ~now Sim.Trace.Cs_evict node.entry.data.Data.name
        [ ("size", string_of_int (Name.Tbl.length t.table)) ];
    true

(* --- public operations --- *)

let insert t ~now data meta =
  let name = data.Data.name in
  (* Refresh rather than duplicate. *)
  (match Name.Tbl.find_opt t.table name with
  | Some node -> remove_node t node
  | None -> ());
  if t.capacity > 0 then begin
    let evictable = ref true in
    while !evictable && Name.Tbl.length t.table >= t.capacity do
      evictable := evict_one t ~now
    done
  end;
  let entry =
    { data; inserted_at = now; last_access = now; access_count = 0; meta }
  in
  let rec node = { entry; prev = None; next = None; self = Some node } in
  Name.Tbl.replace t.table name node;
  census_add t name;
  if t.indexed then Name_trie.add t.index name ();
  push_front t node;
  if t.policy = Eviction.Lfu then begin
    Sim.Heap.add t.lfu_heap ~time:0. ~seq:t.lfu_seq name;
    t.lfu_seq <- t.lfu_seq + 1
  end;
  if t.policy = Eviction.Random_replacement then slots_add t name;
  t.insertions <- t.insertions + 1;
  if Sim.Trace.enabled t.tracer then
    trace t ~now Sim.Trace.Cs_insert name
      [ ("size", string_of_int (Name.Tbl.length t.table)) ]

(* Inline freshness test ([Data.is_fresh] unfolded) so the age stays in
   float registers on the lookup path. *)
(* ndnlint: hot *)
let is_stale e ~now =
  match e.data.Data.freshness_ms with
  | None -> false
  | Some f -> now -. e.inserted_at > f

let expire_node t ~now node =
  remove_node t node;
  t.expirations <- t.expirations + 1;
  if Sim.Trace.enabled t.tracer then
    trace t ~now Sim.Trace.Cs_expire node.entry.data.Data.name
      [ ("age_ms", Printf.sprintf "%.6f" (now -. node.entry.inserted_at)) ]

let expire_if_stale t ~now node =
  if is_stale node.entry ~now then begin
    expire_node t ~now node;
    true
  end
  else false

(* ndnlint: hot *)
let touch t ~now node =
  let e = node.entry in
  e.last_access <- now;
  e.access_count <- e.access_count + 1;
  (* Matching instead of [t.policy = Eviction.Lru]: a generic
     structural compare on the policy variant would call caml_equal on
     every hit. *)
  match t.policy with
  | Eviction.Lru ->
    detach t node;
    push_front t node
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
let hit t ~now node =
  touch t ~now node;
  t.hits <- t.hits + 1;
  if Sim.Trace.enabled t.tracer then
    trace t ~now Sim.Trace.Cs_hit node.entry.data.Data.name
      [ ("count", string_of_int node.entry.access_count) ];
  node.entry

(* ndnlint: hot *)
let find_exact t ~now name =
  t.lookups <- t.lookups + 1;
  match Name.Tbl.find t.table name with
  | exception Not_found -> miss t ~now name
  | node ->
    if is_stale node.entry ~now then begin
      expire_node t ~now node;
      miss t ~now name
    end
    else hit t ~now node

(* Index every cached name, walking the recency list so the build
   order is deterministic; the trie is a set, so any order gives the
   same index. *)
let build_index t =
  let rec go = function
    | None -> ()
    | Some node ->
      Name_trie.add t.index node.entry.data.Data.name ();
      go node.next
  in
  go t.head;
  t.indexed <- true

(* NDN prefix semantics: any cached extension of the interest name can
   satisfy it — unless the object demands strict matching
   (unpredictable-name content, paper footnote 5).  Called once the
   exact name has missed and the census has reported a longer name. *)
let find_extension t name =
  if not t.indexed then build_index t;
  Name_trie.fold_subtree t.index name ~init:None ~f:(fun acc n () ->
      match acc with
      | Some _ -> acc
      | None -> (
        match Name.Tbl.find_opt t.table n with
        | Some node when not node.entry.data.Data.strict_match -> Some node
        | _ -> None))

(* A non-exact lookup: the exact name, else an extension.  A stale
   answer is expired and the search repeated.  With no longer name
   cached, the only possible extension is the query itself, which the
   table has just missed, so the miss is answered without the index.
   A top-level function, so a call builds no closure. *)
let rec lookup_matching t ~now name =
  match Name.Tbl.find t.table name with
  | node -> matched t ~now name node
  | exception Not_found -> (
    match if has_longer t name then find_extension t name else None with
    | Some node -> matched t ~now name node
    | None ->
      count_miss t ~now name;
      None)

and matched t ~now name node =
  if expire_if_stale t ~now node then lookup_matching t ~now name
  else Some (hit t ~now node)

let lookup t ~now ?(exact = false) name =
  if exact then
    match find_exact t ~now name with
    | entry -> Some entry
    | exception Not_found -> None
  else begin
    t.lookups <- t.lookups + 1;
    lookup_matching t ~now name
  end

let peek t name =
  match Name.Tbl.find_opt t.table name with
  | Some node -> Some node.entry
  | None -> None

let mem t name = Name.Tbl.mem t.table name

let set_meta t name meta =
  match Name.Tbl.find_opt t.table name with
  | None -> false
  | Some node ->
    node.entry.meta <- meta;
    true

let clear t =
  Name.Tbl.reset t.table;
  Array.fill t.census 0 (Array.length t.census) 0;
  Name_trie.clear t.index;
  t.indexed <- false;
  t.head <- None;
  t.tail <- None;
  Sim.Heap.clear t.lfu_heap;
  t.slots_len <- 0;
  Name.Tbl.reset t.slot_of

let flush t ~now =
  let dropped = size t in
  clear t;
  if Sim.Trace.enabled t.tracer then
    trace t ~now Sim.Trace.Cs_flush Name.root
      [ ("dropped", string_of_int dropped) ]

let fold t ~init ~f =
  let rec go acc = function
    | None -> acc
    | Some node -> go (f acc node.entry) node.next
  in
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

let pp_counters ppf (c : counters) =
  Format.fprintf ppf
    "lookups=%d hits=%d misses=%d insertions=%d evictions=%d expirations=%d"
    c.lookups c.hits c.misses c.insertions c.evictions c.expirations
