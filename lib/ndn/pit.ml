type admission = Drop_new | Evict_oldest | Per_face_fair

let admission_to_string = function
  | Drop_new -> "drop-new"
  | Evict_oldest -> "evict-oldest"
  | Per_face_fair -> "per-face-fair"

let admission_of_string s =
  match String.lowercase_ascii s with
  | "drop-new" | "drop_new" -> Some Drop_new
  | "evict-oldest" | "evict_oldest" -> Some Evict_oldest
  | "per-face-fair" | "per_face_fair" -> Some Per_face_fair
  | _ -> None

type insert_result = Forward | Collapsed | Duplicate | Rejected

(* Entries live in slot arrays, and [index] maps each pending name to
   its slot.  A slot's [stamp] is unique to the entry that holds it
   ([-1] while the slot is free), so a reference to an entry that has
   since gone — its slot freed, or reused by a later entry — is told
   apart by comparing stamps.

   Expiry index: the per-PIT lifetime is a constant and [created] is the
   monotone engine clock, so insertion order is expiry order and a FIFO
   suffices.  It is a ring of (stamp, slot) pairs in two arrays.
   Entries removed early (satisfy, eviction) leave their pair behind;
   the stamp check skips it when it reaches the front, so [expire]
   costs O(popped), never a rescan. *)
type t = {
  lifetime_ms : float;
  capacity : int option;
  admission : admission;
  on_evict : Name.t -> unit;
  index : Name_index.t;
  mutable names : Name.t array; (* [Name.root] when free *)
  mutable created : float array;
  mutable stamps : int array; (* -1 when free *)
  mutable face0 : int array; (* creating face, charged under Per_face_fair *)
  mutable arrivals : (int * int64) list array; (* (face, nonce), newest first *)
  mutable free : int array;
  mutable free_len : int;
  mutable ring_stamp : int array;
  mutable ring_slot : int array;
  mutable ring_head : int;
  mutable ring_len : int;
  face_live : (int, int) Hashtbl.t; (* live entries per creating face *)
  face_ever : (int, unit) Hashtbl.t;
  mutable faces_seen : int;
  mutable next_stamp : int;
  mutable evictions : int;
  mutable rejections : int;
  (* Creation time of the oldest entry the last [satisfy_timed]
     removed, [infinity] if it removed none.  A one-slot float array,
     not a mutable float field: in this mixed record a float field
     would box on every store. *)
  satisfied : float array;
}

let create ?(lifetime_ms = 4000.) ?capacity ?(admission = Drop_new)
    ?(on_evict = fun _ -> ()) () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Pit.create: capacity must be positive"
  | _ -> ());
  {
    lifetime_ms;
    capacity;
    admission;
    on_evict;
    index = Name_index.create ();
    names = [||];
    created = [||];
    stamps = [||];
    face0 = [||];
    arrivals = [||];
    free = [||];
    free_len = 0;
    ring_stamp = [||];
    ring_slot = [||];
    ring_head = 0;
    ring_len = 0;
    face_live = Hashtbl.create 8;
    face_ever = Hashtbl.create 8;
    faces_seen = 0;
    next_stamp = 0;
    evictions = 0;
    rejections = 0;
    satisfied = [| Float.infinity |];
  }

let capacity t = t.capacity

let admission_policy t = t.admission

let evictions t = t.evictions

let rejections t = t.rejections

let charging = function
  | { capacity = Some _; admission = Per_face_fair; _ } -> true
  | _ -> false

let charge t face =
  if charging t then begin
    if not (Hashtbl.mem t.face_ever face) then begin
      Hashtbl.add t.face_ever face ();
      t.faces_seen <- t.faces_seen + 1
    end;
    Hashtbl.replace t.face_live face
      (1 + Option.value (Hashtbl.find_opt t.face_live face) ~default:0)
  end

let discharge t face =
  if charging t then
    match Hashtbl.find_opt t.face_live face with
    | Some n when n > 1 -> Hashtbl.replace t.face_live face (n - 1)
    | Some _ -> Hashtbl.remove t.face_live face
    | None -> ()

let size t = Name_index.length t.index

(* --- slots --- *)

(* Double the slot arrays and stack the new slots, lowest on top. *)
let grow t =
  let old = Array.length t.names in
  let n = Int.max 8 (2 * old) in
  let more fill = Array.make (n - old) fill in
  t.names <- Array.append t.names (more Name.root);
  t.created <- Array.append t.created (more 0.);
  t.stamps <- Array.append t.stamps (more (-1));
  t.face0 <- Array.append t.face0 (more 0);
  t.arrivals <- Array.append t.arrivals (more []);
  t.free <- Array.append t.free (more (-1));
  for s = n - 1 downto old do
    t.free.(t.free_len) <- s;
    t.free_len <- t.free_len + 1
  done

let alloc_slot t =
  if t.free_len = 0 then grow t;
  t.free_len <- t.free_len - 1;
  t.free.(t.free_len)

let remove_slot t s =
  let name = t.names.(s) in
  Name_index.remove t.index name;
  discharge t t.face0.(s);
  t.names.(s) <- Name.root;
  t.stamps.(s) <- -1;
  t.arrivals.(s) <- [];
  t.free.(t.free_len) <- s;
  t.free_len <- t.free_len + 1

(* --- expiry ring --- *)

let ring_push t stamp s =
  let cap = Array.length t.ring_stamp in
  if t.ring_len = cap then begin
    (* Unroll the ring into arrays twice the size (a power of two, so
       indices wrap with a mask), front at 0. *)
    let n = Int.max 8 (2 * cap) in
    let unroll a fill =
      let b = Array.make n fill in
      for i = 0 to cap - 1 do
        b.(i) <- a.((t.ring_head + i) land (cap - 1))
      done;
      b
    in
    t.ring_stamp <- unroll t.ring_stamp (-1);
    t.ring_slot <- unroll t.ring_slot (-1);
    t.ring_head <- 0
  end;
  let i = (t.ring_head + t.ring_len) land (Array.length t.ring_stamp - 1) in
  t.ring_stamp.(i) <- stamp;
  t.ring_slot.(i) <- s;
  t.ring_len <- t.ring_len + 1

let ring_pop t =
  t.ring_head <- (t.ring_head + 1) land (Array.length t.ring_stamp - 1);
  t.ring_len <- t.ring_len - 1

(* The front's slot while its entry is still there, else -1. *)
let front_live t =
  let s = t.ring_slot.(t.ring_head) in
  if t.stamps.(s) = t.ring_stamp.(t.ring_head) then s else -1

(* Pop stale pairs off the ring front; the front is then the oldest
   live entry, if any. *)
let rec drop_stale t =
  if t.ring_len > 0 && front_live t < 0 then begin
    ring_pop t;
    drop_stale t
  end

(* Drop the oldest live entry: the ring front once the stale pairs
   are off it. *)
let evict_oldest t =
  drop_stale t;
  if t.ring_len = 0 then false
  else begin
    let s = t.ring_slot.(t.ring_head) in
    let name = t.names.(s) in
    ring_pop t;
    remove_slot t s;
    t.evictions <- t.evictions + 1;
    t.on_evict name;
    true
  end

(* Per-face quota: an equal share of the table, at least one slot, over
   every face that has ever created an entry here.  The divisor is
   monotone, so a flooding face's share only shrinks as victims show
   up; honest faces keep [capacity / faces] slots however hard one
   attacker pushes. *)
let face_quota t cap face =
  let share = max 1 (cap / max 1 t.faces_seen) in
  let live = Option.value (Hashtbl.find_opt t.face_live face) ~default:0 in
  live < share

let admit t ~face =
  match t.capacity with
  | None -> true
  | Some cap -> (
    match t.admission with
    | Drop_new -> size t < cap
    | Evict_oldest -> size t < cap || evict_oldest t
    | Per_face_fair ->
      (* Count this face among the claimants before computing shares,
         so the very first interest from a previously unseen face is
         judged against the post-arrival divisor. *)
      if not (Hashtbl.mem t.face_ever face) then begin
        Hashtbl.add t.face_ever face ();
        t.faces_seen <- t.faces_seen + 1
      end;
      size t < cap && face_quota t cap face)

let rec has_arrival face nonce = function
  | [] -> false
  | (f, n) :: rest -> (f = face && Int64.equal n nonce) || has_arrival face nonce rest

let rec has_face f = function [] -> false | (g, _) :: rest -> f = g || has_face f rest

let insert t ~now ~face ~nonce name =
  let s = Name_index.find t.index name in
  if s < 0 then
    if admit t ~face then begin
      let stamp = t.next_stamp in
      t.next_stamp <- stamp + 1;
      let s = alloc_slot t in
      t.names.(s) <- name;
      t.created.(s) <- now;
      t.stamps.(s) <- stamp;
      t.face0.(s) <- face;
      t.arrivals.(s) <- [ (face, nonce) ];
      Name_index.replace t.index name s;
      charge t face;
      ring_push t stamp s;
      Forward
    end
    else begin
      t.rejections <- t.rejections + 1;
      Rejected
    end
  else
    let arrivals = t.arrivals.(s) in
    if has_arrival face nonce arrivals then Duplicate
    else begin
      t.arrivals.(s) <- (face, nonce) :: arrivals;
      (* A new nonce from a face already waiting is the consumer
         retransmitting after loss: forward again so recovery does not
         stall for the rest of the entry's lifetime.  A new face is the
         classic collapse. *)
      if has_face face arrivals then Forward else Collapsed
    end

(* Faces in registration order, first arrival kept, scanning instead of
   filling a per-call table: face lists are short.  [arrivals] is
   newest first, so a face is kept at the arrival with no older one
   from the same face, and prepending while walking toward the oldest
   yields registration order.  Several entries' arrivals, longest name
   first, give their registration orders concatenated shortest first. *)
let rec arrival_faces acc = function
  | [] -> acc
  | (f, _) :: older ->
    arrival_faces (if has_face f older then acc else f :: acc) older

(* The slot of the shortest pending name that is a prefix of [name]
   and at least [n] components long, or -1: one probe per length the
   index's census holds, the query itself at its own length, so the
   common probe builds no name. *)
let rec prefix_slot t name len n =
  if n > len then -1
  else if not (Name_index.has_length t.index n) then prefix_slot t name len (n + 1)
  else
    let s = Name_index.find t.index (if n = len then name else Name.prefix name n) in
    if s < 0 then prefix_slot t name len (n + 1) else s

(* [acc] with the slots of the longer prefixes from [s] on pushed on,
   longest first. *)
let rec prefix_slots t name len s acc =
  if s < 0 then acc
  else
    prefix_slots t name len
      (prefix_slot t name len (Name.length t.names.(s) + 1))
      (s :: acc)

(* A single match, the forwarder's common case, builds only the face
   list; the next probe starts past the match's own length, which its
   slot's name gives. *)
let satisfy_timed t name =
  let len = Name.length name in
  let s = prefix_slot t name len 0 in
  if s < 0 then begin
    t.satisfied.(0) <- Float.infinity;
    []
  end
  else
    let next = prefix_slot t name len (Name.length t.names.(s) + 1) in
    if next < 0 then begin
      let faces = arrival_faces [] t.arrivals.(s) in
      t.satisfied.(0) <- t.created.(s);
      remove_slot t s;
      faces
    end
    else begin
      let matched = prefix_slots t name len next [ s ] in
      let faces = arrival_faces [] (List.concat_map (fun s -> t.arrivals.(s)) matched) in
      t.satisfied.(0) <-
        List.fold_left (fun acc s -> Float.min acc t.created.(s)) Float.infinity matched;
      List.iter (remove_slot t) matched;
      faces
    end

let satisfied_created t = t.satisfied.(0)

let take t name =
  let s = Name_index.find t.index name in
  if s < 0 then []
  else begin
    let arrivals = t.arrivals.(s) in
    remove_slot t s;
    arrival_faces [] arrivals
  end

let pending t name = Name_index.mem t.index name

let faces t name =
  let s = Name_index.find t.index name in
  if s < 0 then [] else arrival_faces [] t.arrivals.(s)

(* ndnlint: hot *)
let expire t ~now =
  (* Pop the ring front while it is a leftover from an early removal
     (skip) or a live entry old enough to expire (drop and report).
     Live entries behind a young one are younger still, so the first
     young live entry ends the sweep.  Names are reported in canonical
     name order, as the historical full-rescan implementation did, so
     traced sweeps render identically.  A while-loop rather than a
     local [let rec]: the recursive closure would capture [t]/[now]
     and allocate on every sweep, and this runs once per sweep
     event. *)
  let stale = ref [] in
  let continue_ = ref true in
  while !continue_ && t.ring_len > 0 do
    let s = front_live t in
    if s < 0 then ring_pop t
    else if now -. t.created.(s) > t.lifetime_ms then begin
      ring_pop t;
      stale := t.names.(s) :: !stale;
      remove_slot t s
    end
    else continue_ := false
  done;
  List.sort Name.compare !stale

let sweep_useful t ~now ~at =
  drop_stale t;
  let oldest = if t.ring_len = 0 then now else t.created.(t.ring_slot.(t.ring_head)) in
  at -. oldest > t.lifetime_ms

let clear t =
  Name_index.clear t.index;
  t.names <- [||];
  t.created <- [||];
  t.stamps <- [||];
  t.face0 <- [||];
  t.arrivals <- [||];
  t.free <- [||];
  t.free_len <- 0;
  t.ring_head <- 0;
  t.ring_len <- 0;
  Hashtbl.reset t.face_live;
  Hashtbl.reset t.face_ever;
  t.faces_seen <- 0
