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

type entry = {
  created : float;
  stamp : int; (* pairs the trie binding with its expiry-index slot *)
  face0 : int; (* creating face, charged under Per_face_fair *)
  mutable arrivals : (int * int64) list; (* (face, nonce), newest first *)
}

type insert_result = Forward | Collapsed | Duplicate | Rejected

type t = {
  lifetime_ms : float;
  capacity : int option;
  admission : admission;
  on_evict : Name.t -> unit;
  trie : entry Name_trie.t;
  (* Time-ordered expiry index: the per-PIT lifetime is a constant and
     [created] is the monotone engine clock, so insertion order is
     expiry order and a FIFO suffices.  Entries removed early (satisfy,
     eviction) leave a stale slot behind; the [stamp] check skips it
     when popped, so [expire] costs O(popped), never a trie rescan. *)
  expiry : (int * float * Name.t) Queue.t;
  face_live : (int, int) Hashtbl.t; (* live entries per creating face *)
  face_ever : (int, unit) Hashtbl.t;
  mutable faces_seen : int;
  mutable next_stamp : int;
  mutable evictions : int;
  mutable rejections : int;
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
    trie = Name_trie.create ();
    expiry = Queue.create ();
    face_live = Hashtbl.create 8;
    face_ever = Hashtbl.create 8;
    faces_seen = 0;
    next_stamp = 0;
    evictions = 0;
    rejections = 0;
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

let remove_entry t name entry =
  Name_trie.remove t.trie name;
  discharge t entry.face0

(* Pop stale slots off the index front; the front is then the oldest
   live entry, if any. *)
let rec drop_stale t =
  if not (Queue.is_empty t.expiry) then begin
    let stamp, _, name = Queue.peek t.expiry in
    match Name_trie.find t.trie name with
    | Some e when e.stamp = stamp -> ()
    | _ ->
      ignore (Queue.pop t.expiry);
      drop_stale t
  end

(* Drop the oldest live entry: the index front once the stale slots
   are off it. *)
let evict_oldest t =
  drop_stale t;
  match Queue.take_opt t.expiry with
  | None -> false
  | Some (_, _, name) ->
    Option.iter (remove_entry t name) (Name_trie.find t.trie name);
    t.evictions <- t.evictions + 1;
    t.on_evict name;
    true

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
    | Drop_new -> Name_trie.size t.trie < cap
    | Evict_oldest -> Name_trie.size t.trie < cap || evict_oldest t
    | Per_face_fair ->
      (* Count this face among the claimants before computing shares,
         so the very first interest from a previously unseen face is
         judged against the post-arrival divisor. *)
      if not (Hashtbl.mem t.face_ever face) then begin
        Hashtbl.add t.face_ever face ();
        t.faces_seen <- t.faces_seen + 1
      end;
      Name_trie.size t.trie < cap && face_quota t cap face)

let insert t ~now ~face ~nonce name =
  match Name_trie.find t.trie name with
  | None ->
    if admit t ~face then begin
      let stamp = t.next_stamp in
      t.next_stamp <- stamp + 1;
      Name_trie.add t.trie name
        { created = now; stamp; face0 = face; arrivals = [ (face, nonce) ] };
      charge t face;
      Queue.add (stamp, now, name) t.expiry;
      Forward
    end
    else begin
      t.rejections <- t.rejections + 1;
      Rejected
    end
  | Some entry ->
    if List.exists (fun (f, n) -> f = face && Int64.equal n nonce) entry.arrivals
    then Duplicate
    else begin
      let retransmission = List.mem_assoc face entry.arrivals in
      entry.arrivals <- (face, nonce) :: entry.arrivals;
      (* A new nonce from a face already waiting is the consumer
         retransmitting after loss: forward again so recovery does not
         stall for the rest of the entry's lifetime.  A new face is the
         classic collapse. *)
      if retransmission then Forward else Collapsed
    end

let rec has_face f = function [] -> false | (g, _) :: rest -> f = g || has_face f rest

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

let satisfy_timed t name =
  (* Every pending name that is a prefix of the Data name is satisfied. *)
  let matched =
    Name_trie.fold_prefixes t.trie name ~init:[] ~f:(fun acc n entry ->
        (n, entry) :: acc)
  in
  match matched with
  | [] -> ([], None)
  | [ (n, entry) ] ->
    remove_entry t n entry;
    (arrival_faces [] entry.arrivals, Some entry.created)
  | _ ->
    (* [matched] is longest name first. *)
    let faces =
      arrival_faces [] (List.concat_map (fun (_, entry) -> entry.arrivals) matched)
    in
    let oldest =
      List.fold_left (fun acc (_, entry) -> Float.min acc entry.created)
        Float.infinity matched
    in
    List.iter (fun (n, e) -> remove_entry t n e) matched;
    (faces, Some oldest)

let satisfy t name = fst (satisfy_timed t name)

let take t name =
  match Name_trie.find t.trie name with
  | None -> []
  | Some entry ->
    remove_entry t name entry;
    arrival_faces [] entry.arrivals

let pending t name = Name_trie.mem t.trie name

let faces t name =
  match Name_trie.find t.trie name with
  | None -> []
  | Some entry -> arrival_faces [] entry.arrivals

(* ndnlint: hot *)
let expire t ~now =
  (* Pop the index front while it is stale; each slot is either a live
     expired entry (drop and report) or a leftover from an early
     removal (skip).  Names are reported in canonical trie order, as
     the historical full-rescan implementation did, so traced sweeps
     render identically.  A while-loop rather than a local [let rec]:
     the recursive closure would capture [t]/[now] and allocate on
     every sweep, and this runs once per sweep event. *)
  let stale = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match Queue.peek_opt t.expiry with
    | Some (stamp, created, name) when now -. created > t.lifetime_ms ->
      ignore (Queue.pop t.expiry);
      (match Name_trie.find t.trie name with
      | Some e when e.stamp = stamp ->
        remove_entry t name e;
        stale := name :: !stale
      | _ -> ())
    | _ -> continue_ := false
  done;
  List.sort Name.compare !stale

let sweep_useful t ~now ~at =
  drop_stale t;
  let oldest =
    if Queue.is_empty t.expiry then now
    else
      let _, created, _ = Queue.peek t.expiry in
      created
  in
  at -. oldest > t.lifetime_ms

let size t = Name_trie.size t.trie

let clear t =
  Name_trie.clear t.trie;
  Queue.clear t.expiry;
  Hashtbl.reset t.face_live;
  Hashtbl.reset t.face_ever;
  t.faces_seen <- 0
