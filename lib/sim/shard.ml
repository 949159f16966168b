(* Conservative intra-trial sharding: K shard-local engines that
   exchange cross-shard deliveries through per-(src,dst) queues and
   advance in lookahead windows.

   Window protocol (per round, all shards in lockstep):

     1. drain  — each shard moves every inbound queued message into its
        heap (in fixed source-shard order; arrival order inside a heap
        is irrelevant because pop order is total on [(time, key)]);
     2. agree  — each shard publishes its earliest event time; a
        barrier later, everyone computes the same global minimum
        [gnext].  [infinity] means globally quiescent: stop.
     3. window — everyone runs its engine up to (but excluding)
        [gnext + lookahead].  Any message sent during the window
        carries a delivery time [>= send_time + min cross-shard link
        delay >= gnext + lookahead], i.e. outside the window — so no
        shard can receive a message "in its past".  A second barrier
        publishes the sends, and the next round's drain picks them up.

   Determinism does not come from the windows (they only bound
   *when* work may run) but from the event keys: every event is keyed
   with a globally unique [(node id, per-node counter)] pair packed
   into an int, the heap pops in [(time, key)] order, and a
   node's full event sequence is therefore independent of which engine
   hosts it.  Trace records are tagged with the key of the event that
   emitted them and stitched across shards by [(time, tag)], giving one
   byte stream for any shard count. *)

type msg = { mt : float; mk : int; mf : unit -> unit }

let nop () = ()

let dummy_msg = { mt = 0.; mk = 0; mf = nop }

(* Growable per-(src,dst) message queue.  No lock: between two window
   barriers only the source shard's domain appends, and the destination
   drains strictly after the barrier that published the appends. *)
type queue = { mutable arr : msg array; mutable len : int }

(* Per-shard tagged trace buffer: (stitch key, event) in emission
   order. *)
type tbuf = { mutable ev : (int * Trace.event) array; mutable tlen : int }

let dummy_tagged =
  ( 0,
    { Trace.time = 0.; node = ""; kind = Trace.Engine_step; name = ""; attrs = [] }
  )

type t = {
  k : int;
  engines : Engine.t array;
  into : Trace.t; (* where the stitched records go *)
  tracers : Trace.t array;
  tbufs : tbuf array;
  queues : queue array; (* length k*k, index src*k + dst *)
  mutable min_link_delay : float; (* infinity until a link is noted *)
  mutable latency_factor : float; (* min fault degradation factor seen *)
  mutable watchdog : (float * (unit -> float)) option;
      (* (stall bound ms, wall-clock) — None = no watchdog (default) *)
  mutable windows : int; (* window rounds of the last [run] *)
}

(* One lookahead window can hold at most [queue_bound] messages per
   directed shard pair; beyond that the simulation is almost certainly
   in a feedback loop, and unbounded queues would only defer the OOM. *)
let queue_bound = 1 lsl 22

let push buf tagged =
  if buf.tlen = Array.length buf.ev then begin
    let cap = max 64 (2 * Array.length buf.ev) in
    let ev = Array.make cap dummy_tagged in
    Array.blit buf.ev 0 ev 0 buf.tlen;
    buf.ev <- ev
  end;
  buf.ev.(buf.tlen) <- tagged;
  buf.tlen <- buf.tlen + 1

(* Emit [all] into [into] sorted by [(time, tag)].  Stable: records
   sharing a stitch tag come from one firing context on one shard and
   stay in their emission order. *)
let emit_stitched into all =
  Array.stable_sort
    (fun (k1, e1) (k2, e2) ->
      let c = Float.compare e1.Trace.time e2.Trace.time in
      if c <> 0 then c else Int.compare k1 k2)
    all;
  Array.iter (fun (_, e) -> Trace.emit into e) all

let release into buf =
  let all = Array.sub buf.ev 0 buf.tlen in
  Array.fill buf.ev 0 buf.tlen dummy_tagged;
  buf.tlen <- 0;
  emit_stitched into all

let create ?(tracer = Trace.disabled) ~shards () =
  if shards < 1 then invalid_arg "Sim.Shard.create: shards < 1";
  let tbufs = Array.init shards (fun _ -> { ev = [||]; tlen = 0 }) in
  let engines = ref [||] in
  let tracers =
    if not (Trace.enabled tracer) then Array.make shards Trace.disabled
    else
      Array.init shards (fun i ->
          let buf = tbufs.(i) in
          Trace.with_sink (fun e ->
              (* A lone engine emits in non-decreasing time, so once
                 time moves on, the buffered instant is complete and
                 can be stitched out at once rather than held until the
                 end of the run. *)
              if
                shards = 1
                && buf.tlen > 0
                && e.Trace.time > (snd buf.ev.(buf.tlen - 1)).Trace.time
              then release tracer buf;
              push buf (Engine.cur_key !engines.(i), e)))
  in
  (* A lone engine sees every event, so at K = 1 its [engine.step]
     records (queue depth, processed count) join the stitched trace.
     At K >= 2 engines emit none: those figures depend on the
     partition. *)
  let engine_tracer = if shards = 1 then tracers.(0) else Trace.disabled in
  engines :=
    Array.init shards (fun _ -> Engine.create ~tracer:engine_tracer ());
  {
    k = shards;
    engines = !engines;
    into = tracer;
    tracers;
    tbufs;
    queues = Array.init (shards * shards) (fun _ -> { arr = [||]; len = 0 });
    min_link_delay = Float.infinity;
    latency_factor = 1.;
    watchdog = None;
    windows = 0;
  }

let set_watchdog t ?(stall_ms = 30_000.) ~clock_ms () =
  if not (stall_ms > 0. && Float.is_finite stall_ms) then
    invalid_arg "Sim.Shard.set_watchdog: stall_ms must be positive and finite";
  t.watchdog <- Some (stall_ms, clock_ms)

let clear_watchdog t = t.watchdog <- None

let engine t i = t.engines.(i)

let tracer t i = t.tracers.(i)

(* FNV-1a (32-bit) over the label: a fixed, platform-independent shard
   assignment — [Hashtbl.hash] would tie the partition (and thus which
   code path every packet takes) to the runtime's hash implementation. *)
let assign t label =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    label;
  !h mod t.k

let note_min_link_delay t d =
  if d < t.min_link_delay then t.min_link_delay <- d

let note_latency_factor t f =
  let f = if f < 0. then 0. else f in
  if f < t.latency_factor then t.latency_factor <- f

let lookahead t = t.min_link_delay *. Float.min 1. t.latency_factor

let send t ~src ~dst ~time ~key f =
  let q = t.queues.((src * t.k) + dst) in
  if q.len >= queue_bound then
    failwith
      (Printf.sprintf
         "Sim.Shard: cross-shard queue %d->%d overflowed its %d-message \
          bound within one lookahead window"
         src dst queue_bound);
  if q.len = Array.length q.arr then begin
    let cap = max 8 (2 * Array.length q.arr) in
    let arr = Array.make cap dummy_msg in
    Array.blit q.arr 0 arr 0 q.len;
    q.arr <- arr
  end;
  q.arr.(q.len) <- { mt = time; mk = key; mf = f };
  q.len <- q.len + 1

(* The windowed parallel loop for k >= 2.  Every worker executes the
   exact same barrier sequence: the stop/continue decision is a pure
   function of data published before the deciding barrier (local_next),
   so workers can never disagree on it.  A worker whose window raises
   publishes [neg_infinity] as its next event time, which stops
   everyone on the following round; the exception is re-raised on the
   caller after the joins. *)
(* No cross-shard link was ever registered, so [send] can never be
   called (every cross-shard connect closure notes its link's delay at
   wiring time): the shards are fully independent event streams and can
   simply run to completion one after the other on the calling domain. *)
let run_disconnected t ~until =
  Array.iter (fun eng -> Engine.run ?until eng) t.engines

let run_windows_connected t ~until ~la =
  let k = t.k in
  if la <= 0. then
    failwith
      "Sim.Shard: cross-shard lookahead is not positive — every cross-shard \
       link must have a positive minimum latency (and fault schedules must \
       not degrade one to zero)";
  let limit = match until with Some l -> l | None -> Float.infinity in
  let local_next = Array.make k Float.infinity in
  let bcount = Atomic.make 0 in
  let bsense = Atomic.make false in
  let bmutex = Mutex.create () in
  let bcond = Condition.create () in
  let fail = Atomic.make None in
  (* Which sense each worker last signed in with: a straggler is a slot
     still carrying the previous sense.  Plain (non-atomic) bools — the
     array is only read to build the stall diagnostic, where a torn
     read at worst misnames a shard that arrived at the last instant. *)
  let arrived = Array.make k false in
  (* Snapshot of the stalled partition, racy by design (the point is
     that somebody is NOT making progress).  Names the shards that
     never reached the barrier, how much work each engine still holds,
     and any backed-up cross-shard queues. *)
  let stall_diagnostic ~waiter ~stall_ms s =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "Sim.Shard: stall watchdog — no barrier progress in %.0f ms (shard %d \
          waiting); stuck shard(s):"
         stall_ms waiter);
    for j = 0 to k - 1 do
      if arrived.(j) <> s then Buffer.add_string buf (Printf.sprintf " %d" j)
    done;
    Buffer.add_string buf "; pending events:";
    Array.iteri
      (fun j eng ->
        Buffer.add_string buf (Printf.sprintf " %d:%d" j (Engine.pending eng)))
      t.engines;
    Buffer.add_string buf "; cross-shard queue depths:";
    let any = ref false in
    Array.iteri
      (fun idx q ->
        if q.len > 0 then begin
          any := true;
          Buffer.add_string buf
            (Printf.sprintf " %d->%d:%d" (idx / k) (idx mod k) q.len)
        end)
      t.queues;
    if not !any then Buffer.add_string buf " none";
    Buffer.contents buf
  in
  (* Sense-reversing barrier, hybrid wait: spin briefly (fast path when
     every shard has its own core), then block on the condition
     variable — pure spinning on an oversubscribed host (fewer cores
     than shards) burns whole scheduler quanta per window and collapses
     throughput.  The releaser flips [bsense] while holding the mutex,
     so a waiter that saw the old sense before locking cannot miss the
     broadcast.

     With a watchdog armed, the block phase polls instead of sleeping
     (OCaml's [Condition] has no timed wait): the waiter checks the
     injected wall-clock every 4096 relaxations and raises a diagnostic
     once the stall bound passes without release.  That failure is not
     recoverable — peers blocked at the same barrier raise their own
     copies, and the stuck shard keeps running until its window ends —
     it exists to turn a silent hang into an actionable error. *)
  let barrier i sense =
    let s = not !sense in
    sense := s;
    arrived.(i) <- s;
    if Atomic.fetch_and_add bcount 1 = k - 1 then begin
      Atomic.set bcount 0;
      Mutex.lock bmutex;
      Atomic.set bsense s;
      Condition.broadcast bcond;
      Mutex.unlock bmutex
    end
    else begin
      let spins = ref 0 in
      while Atomic.get bsense <> s && !spins < 2048 do
        incr spins;
        Domain.cpu_relax ()
      done;
      if Atomic.get bsense <> s then begin
        match t.watchdog with
        | None ->
          Mutex.lock bmutex;
          while Atomic.get bsense <> s do
            Condition.wait bcond bmutex
          done;
          Mutex.unlock bmutex
        | Some (stall_ms, clock_ms) ->
          let t0 = clock_ms () in
          let polls = ref 0 in
          while Atomic.get bsense <> s do
            Domain.cpu_relax ();
            incr polls;
            if !polls land 4095 = 0 && clock_ms () -. t0 > stall_ms then
              failwith (stall_diagnostic ~waiter:i ~stall_ms s)
          done
      end
    end
  in
  let worker i =
    let eng = t.engines.(i) in
    let sense = ref false in
    let poisoned = ref false in
    let rec round () =
      if not !poisoned then
        for src = 0 to k - 1 do
          let q = t.queues.((src * k) + i) in
          for j = 0 to q.len - 1 do
            let m = q.arr.(j) in
            ignore (Engine.schedule_key_at eng ~time:m.mt ~key:m.mk m.mf);
            q.arr.(j) <- dummy_msg
          done;
          q.len <- 0
        done;
      local_next.(i) <-
        (if !poisoned then Float.neg_infinity else Engine.next_event_time eng);
      barrier i sense;
      let gnext = ref Float.infinity in
      for s = 0 to k - 1 do
        if local_next.(s) < !gnext then gnext := local_next.(s)
      done;
      (* -inf: a peer failed; +inf: globally quiescent (and note
         inf <= inf, so the bound test alone would spin forever on an
         unbounded run); > limit: nothing left inside the horizon
         (inbound messages were already drained into the heaps above,
         so none are stranded). *)
      if Float.is_finite !gnext && !gnext <= limit then begin
        (* Every worker takes the same decision, so worker 0, on the
           calling domain, counts for all. *)
        if i = 0 then t.windows <- t.windows + 1;
        let window_end = !gnext +. la in
        (try
           if window_end > limit then
             (* Final horizon window, inclusive: arrivals land at
                [>= gnext + la > limit], so none can be missed. *)
             Engine.run ~until:limit eng
           else
             (* Exclusive bound ([min_before] is <=): a cross-shard
                arrival at exactly [window_end] must get to tie-break
                by key against local events at that instant, so the
                boundary itself belongs to the next round. *)
             Engine.run ~until:(Float.pred window_end) eng
         with exn ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set fail None (Some (exn, bt)));
           poisoned := true);
        barrier i sense;
        round ()
      end
    in
    round ()
  in
  let domains =
    Array.init (k - 1) (fun j -> Domain.spawn (fun () -> worker (j + 1)))
  in
  worker 0;
  Array.iter Domain.join domains;
  match Atomic.get fail with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let run_windows t ~until =
  let la = lookahead t in
  if Float.is_finite la then run_windows_connected t ~until ~la
  else run_disconnected t ~until

(* Shard-count-invariant finish time, applied to every engine so that
   [now] (and anything a driver schedules relative to it) cannot depend
   on per-shard window clamps:

   - with events still queued under a horizon [l]: every window bound
     was capped at [l], so [l] itself (or the pre-run clock, if the
     horizon was already in the past) is the invariant answer — exactly
     what a sequential [Engine.run ~until] leaves behind;
   - otherwise: the latest instant any engine reached by actually
     popping an event.  Which events exist is partition-independent, so
     the global maximum is too. *)
let align_finish t ~until ~pre =
  let base = ref pre in
  Array.iter
    (fun e ->
      if Engine.now e > !base then base := Engine.now e;
      if Engine.last_fire_time e > !base then base := Engine.last_fire_time e)
    t.engines;
  let queued = Array.exists Engine.has_queued t.engines in
  let finish =
    match until with Some l when queued -> Float.max l !base | _ -> !base
  in
  Array.iter (fun e -> Engine.advance_clock_to e finish) t.engines

(* Stitch and clear every shard's buffer. *)
let flush_trace t =
  let total = Array.fold_left (fun acc b -> acc + b.tlen) 0 t.tbufs in
  if total > 0 then begin
    let all = Array.make total dummy_tagged in
    let off = ref 0 in
    Array.iter
      (fun b ->
        Array.blit b.ev 0 all !off b.tlen;
        off := !off + b.tlen;
        b.ev <- [||];
        b.tlen <- 0)
      t.tbufs;
    emit_stitched t.into all
  end

let run ?until t =
  let pre = Engine.now t.engines.(0) in
  t.windows <- 0;
  if t.k = 1 then Engine.run ?until t.engines.(0) else run_windows t ~until;
  align_finish t ~until ~pre;
  flush_trace t

let now t = Engine.now t.engines.(0)

let windows t = t.windows

let events_processed t =
  Array.fold_left (fun acc e -> acc + Engine.events_processed e) 0 t.engines
