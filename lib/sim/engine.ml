type state = Pending | Fired | Cancelled

type t = {
  queue : handle Heap.t;
  (* The virtual clock lives in a float array rather than a mutable
     float field: a mixed record's float field is a pointer to a box,
     so every assignment would allocate a fresh box and pay a write
     barrier — once per event.  A float-array store is unboxed and
     barrier-free.  Slot 0 is the clock; slot 1 is the time of the last
     event that actually executed (used by [Sim.Shard] to compute a
     shard-count-invariant finish time). *)
  clock : float array;
  (* The hold horizon (see [hold_until]), alone in its array so that a
     hold is queued by [Heap.add_reading_time] straight from it. *)
  horizon : float array;
  (* A time on its way to [hold_from]: the removed event's time, which
     [cancel] receives from the heap, or [hold_until]'s argument. *)
  cancelled_at : float array;
  mutable next_seq : int;
  (* Heap key of the event currently being dispatched (or, between
     events, of whatever root context last claimed the key via
     [set_cur_key]).  [Sim.Shard]'s trace stitcher tags every trace
     record with this so records can be merged across shards in a
     shard-count-invariant total order. *)
  mutable cur_key : int;
  mutable processed : int;
  (* Intrusive free-list of recycled handle records ([free == nil] means
     empty); [nil] is a per-engine sentinel whose [next_free] is
     itself.  Handles threaded here keep their terminal state (Fired or
     Cancelled) until reused by a later [schedule].  [next_free] is
     only meaningful while the record sits in the free list; it is left
     stale once the record is rescheduled (resetting it would cost a
     write barrier per schedule for nothing — at worst it keeps one
     retired record reachable, and every record here is long-lived
     anyway). *)
  mutable free : handle;
  nil : handle;
  tracer : Trace.t;
  (* The queued hold event ([nil] when none); see [hold_until]. *)
  mutable hold : handle;
  (* Replace-top dispatch: [true] while the heap root is the entry of
     an event that has already fired.  The first event scheduled after
     that takes over the root with one sift-down; if none is, the dead
     root is dropped once the action returns, or on entry to the next
     [run]/[step] if the action raised.  Nothing that reports on the
     queue counts it. *)
  mutable firing : bool;
}

and handle = {
  mutable state : state;
  mutable action : unit -> unit;
  owner : t;
  mutable next_free : handle;
  (* The heap slot of the queued entry; meaningful while [Pending]. *)
  mutable slot : int;
}

let nop () = ()

let create ?(tracer = Trace.disabled) () =
  let rec eng =
    {
      queue = Heap.create ();
      clock = [| 0.; 0. |];
      horizon = [| Float.neg_infinity |];
      cancelled_at = [| 0. |];
      next_seq = 0;
      cur_key = 0;
      processed = 0;
      free = nil;
      nil;
      tracer;
      hold = nil;
      firing = false;
    }
  and nil = { state = Fired; action = nop; owner = eng; next_free = nil; slot = -1 } in
  eng

let now t = Array.unsafe_get t.clock 0

let last_fire_time t = Array.unsafe_get t.clock 1

let advance_clock_to t time =
  if time > Array.unsafe_get t.clock 0 then Array.unsafe_set t.clock 0 time

let cur_key t = t.cur_key

let set_cur_key t key = t.cur_key <- key

(* Return a popped record to the free-list.  The closure is dropped
   immediately so it does not outlive its event; the state is left at
   its terminal value so [is_cancelled] keeps answering for the old
   event until the record is reused. *)
let recycle t h =
  h.action <- nop;
  h.next_free <- t.free;
  t.free <- h

(* A pending handle record for [f], recycled when one is free. *)
(* ndnlint: hot *)
let claim_handle t f =
  (* Physical identity against the per-engine sentinel is the
     free-list emptiness test. *)
  if t.free != t.nil then begin
    let h = t.free in
    t.free <- h.next_free;
    h.state <- Pending;
    h.action <- f;
    h
  end
  else
    (* Pool-growth path: a fresh handle is built only when the free
       list is empty; steady-state scheduling recycles and never
       reaches this allocation. *)
    (* ndnlint: allow A1 -- pool growth only; steady state recycles *)
    { state = Pending; action = f; owner = t; next_free = t.nil; slot = -1 }

(* ndnlint: hot *)
let add_event t ~time ~seq f =
  let clk = Array.unsafe_get t.clock 0 in
  let time = if time < clk then clk else time in
  let h = claim_handle t f in
  if t.firing then begin
    t.firing <- false;
    h.slot <- Heap.replace_min t.queue ~time ~seq h
  end
  else h.slot <- Heap.add t.queue ~time ~seq h;
  h

let schedule_at t ~time f =
  let h = add_event t ~time ~seq:t.next_seq f in
  t.next_seq <- t.next_seq + 1;
  h

let schedule t ~delay f =
  let delay = if delay < 0. then 0. else delay in
  schedule_at t ~time:(Array.unsafe_get t.clock 0 +. delay) f

let schedule_key_at t ~time ~key f = add_event t ~time ~seq:key f

(* The hold event's heap key: below every counter value and every
   shard key, and unique, since at most one hold event is queued. *)
let hold_seq = -1

(* Queue the hold event at [time_from.(0)], a time ahead of the clock:
   while an action runs it sorts after the dead root, so a plain add
   leaves the root in place. *)
let arm_hold t time_from =
  let h = claim_handle t nop in
  h.slot <- Heap.add_reading_time t.queue ~time_from ~seq:hold_seq h;
  t.hold <- h

(* [hold_until] for a time kept in [time_from.(0)]: raise the horizon,
   and with no hold queued, queue one at that time. *)
let hold_from t time_from =
  let time = Array.unsafe_get time_from 0 in
  if time > Array.unsafe_get t.horizon 0 then Array.unsafe_set t.horizon 0 time;
  if t.hold == t.nil && time > Array.unsafe_get t.clock 0 then arm_hold t time_from

let hold_until t time =
  Array.unsafe_set t.cancelled_at 0 time;
  hold_from t t.cancelled_at

(* The hold event is the engine's bookkeeping, not a simulation event:
   reaching it moves the clock like any event, but it is not counted,
   traced or charged to a [max_events] budget, and [cur_key] keeps the
   last real event's key.  It re-arms at the horizon if that moved. *)
let hold_reached t h =
  Array.unsafe_set t.clock 1 (Array.unsafe_get t.clock 0);
  h.state <- Fired;
  recycle t h;
  t.hold <- t.nil;
  if Array.unsafe_get t.horizon 0 > Array.unsafe_get t.clock 0 then arm_hold t t.horizon

let schedule_key t ~delay ~key f =
  let delay = if delay < 0. then 0. else delay in
  schedule_key_at t ~time:(Array.unsafe_get t.clock 0 +. delay) ~key f

(* The entry leaves the queue here, with its action: a cancelled
   timer's closure graph (a whole fetch's callbacks, say) and its heap
   slot would otherwise stay taken until its deadline, which for a
   retransmission timer is usually long after it stopped mattering.
   The engine is held at the event's time instead, so a drained [run]
   still ends there.  The hold is queued before the record is recycled:
   queued after, it would reuse the record and turn [is_cancelled]
   false at once. *)
(* ndnlint: hot *)
let cancel h =
  match h.state with
  | Pending ->
    let t = h.owner in
    h.state <- Cancelled;
    Heap.remove_writing_time t.queue h.slot ~time_into:t.cancelled_at;
    hold_from t t.cancelled_at;
    recycle t h
  | Fired | Cancelled -> ()

let is_cancelled h = h.state = Cancelled

(* Drop the dead root left by a fired event that scheduled nothing. *)
let settle t =
  if t.firing then begin
    t.firing <- false;
    ignore (Heap.pop_min_elt t.queue)
  end

(* Fire the pending event at the heap root: mark, count, trace, recycle,
   run.  The root stays queued, dead, while the action runs, so that
   the action's first [schedule] replaces it instead of paying a pop
   and an add; the trace's [depth] therefore leaves it out.  The record
   is recycled before the action runs (the closure was saved out), so
   events scheduled from inside the action reuse it at once. *)
(* ndnlint: hot *)
let fire t h =
  h.state <- Fired;
  t.processed <- t.processed + 1;
  Array.unsafe_set t.clock 1 (Array.unsafe_get t.clock 0);
  let action = h.action in
  recycle t h;
  t.firing <- true;
  if Trace.enabled t.tracer then
    Trace.emit t.tracer
      {
        Trace.time = Array.unsafe_get t.clock 0;
        node = "engine";
        kind = Trace.Engine_step;
        name = "";
        attrs =
          [
            ("depth", string_of_int (Heap.length t.queue - 1));
            ("processed", string_of_int t.processed);
          ];
      };
  action ();
  settle t

(* Dispatch the event at the root of a queue with no dead root: move
   the clock to it, then fire it, or pop it if it is the hold event.
   Returns whether an event was executed. *)
(* ndnlint: hot *)
let dispatch_min t =
  let h = Heap.min_elt_writing_time t.queue ~time_into:t.clock in
  if h == t.hold then begin
    ignore (Heap.pop_min_elt t.queue);
    hold_reached t h;
    false
  end
  else begin
    t.cur_key <- Heap.min_seq t.queue;
    fire t h;
    true
  end

(* ndnlint: hot *)
let step t =
  settle t;
  if Heap.is_empty t.queue then false
  else begin
    ignore (dispatch_min t);
    true
  end

(* ndnlint: hot *)
let run ?until ?max_events t =
  let limit = match until with Some l -> l | None -> Float.infinity in
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  settle t;
  while !continue && !budget > 0 do
    if Heap.min_before t.queue limit then begin
      (* The hold event consumes no [max_events] budget — the budget
         counts executed events, matching [events_processed]. *)
      if dispatch_min t then decr budget
    end
    else begin
      (* Queue empty, or the next event is beyond [until].  In the
         latter case leave future events queued and advance the clock
         to the limit so that a subsequent [run ~until] picks up where
         we stopped. *)
      if (not (Heap.is_empty t.queue)) && limit < Float.infinity then
        Array.unsafe_set t.clock 0 limit;
      continue := false
    end
  done

(* Every queued entry but the hold and a dead root is a live event:
   cancelled ones have left the queue. *)
let pending t =
  Heap.length t.queue - (if t.hold == t.nil then 0 else 1) - (if t.firing then 1 else 0)

let has_queued t = Heap.length t.queue > (if t.firing then 1 else 0)

let next_event_time t =
  settle t;
  if Heap.is_empty t.queue then Float.infinity else Heap.min_time t.queue

let events_processed t = t.processed
