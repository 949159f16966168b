(* The traced run: per-layer metrics for one workload.

   A traced op runs with a streaming [Sim.Trace] sink that records, in
   compact arrays, the operations each layer performed: Content Store
   lookups and inserts, PIT inserts (with their outcome), satisfactions
   and expiry sweeps, FIB lookups, engine dispatches with the queue
   depth, and producer signings.  Each layer's public functions are then
   re-driven with exactly that operation stream from this file, timed
   call by call, and the re-drive's counters are checked against the
   untraced op's counters: a per-layer time describes the same work as
   the timed run or the run is marked incorrect.

   fig5-replay runs no network; its per-layer numbers come from a
   bench-side copy of the [Workload.Replay.replay] loop whose calls into
   [Trace.name_of], [Content_store], [Policy] and [Data.create] are timed
   one by one and whose outcome must equal [Replay.replay]'s. *)

module W = Workloads
module M = Measure

let now_ns = M.now_ns
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)

(* Mean cost of one back-to-back clock read, subtracted from per-call
   timings so that a layer's time is not inflated by the timer. *)
let clock_overhead_ns =
  lazy
    (let n = 200_000 in
     let acc = ref 0. in
     for _ = 1 to n do
       let t0 = now_ns () in
       let t1 = now_ns () in
       acc := !acc +. ns_between t0 t1
     done;
     !acc /. float_of_int n)

let net_ns total calls =
  Float.max 0. (total -. (float_of_int calls *. Lazy.force clock_overhead_ns))

(* ------------------------------------------------------------------ *)
(* Growable arrays.                                                    *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 1024 dummy; n = 0; dummy }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) v.dummy in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let length v = v.n
end

(* ------------------------------------------------------------------ *)
(* Recording the op stream.                                            *)

let sample_cap = 200_000

(* PIT log ops *)
let pit_insert = 0
let pit_satisfy = 1

(* Insert outcomes as read off the trace; [-1] = a CS miss whose insert
   left no trace record (no route without NACKs, or a silent
   duplicate), so its outcome is not compared. *)
let out_unknown = -1
let out_forward = 0
let out_collapsed = 1
let out_duplicate = 2
let out_rejected = 3

type recorder = {
  mutable gen : int;  (** Index of the network currently emitting. *)
  node_ids : (int * string, int) Hashtbl.t;
  node_gen : int Vec.t;
  node_label : string Vec.t;
  name_ids : (string, int) Hashtbl.t;
  name_str : string Vec.t;
  counts : int array;  (** Per [Trace.kind_id]. *)
  mutable total : int;
  sample : Sim.Trace.event Vec.t;
  (* Content Store: op 0 lookup (traced hit), 1 lookup (traced miss),
     2 insert. *)
  cs_node : int Vec.t;
  cs_op : int Vec.t;
  cs_name : int Vec.t;
  cs_time : float Vec.t;
  (* PIT *)
  pit_node : int Vec.t;
  pit_op : int Vec.t;
  pit_name : int Vec.t;
  pit_face : int Vec.t;
  pit_out : int Vec.t;
  pit_time : float Vec.t;
  (* FIB *)
  fib_node : int Vec.t;
  fib_name : int Vec.t;
  (* Engine *)
  eng_gen : int Vec.t;
  eng_time : float Vec.t;
  eng_depth : int Vec.t;
  (* Producer signings *)
  sign_name : int Vec.t;
  producers : string list;
  (* The interest currently being processed (set by interest.recv). *)
  mutable cand : bool;
  mutable cand_node : int;
  mutable cand_name : int;
  mutable cand_face : int;
  mutable cand_time : float;
  mutable cand_cs : int;  (** 0 none yet, 1 hit, 2 miss *)
  mutable orphans : int;  (** PIT markers with no interest in flight *)
}

let dummy_event =
  { Sim.Trace.time = 0.; node = ""; kind = Sim.Trace.Engine_step; name = ""; attrs = [] }

let recorder ~producers =
  let iv () = Vec.create 0 and fv () = Vec.create 0. in
  {
    gen = -1;
    node_ids = Hashtbl.create 1024;
    node_gen = iv ();
    node_label = Vec.create "";
    name_ids = Hashtbl.create 4096;
    name_str = Vec.create "";
    counts = Array.make (List.length Sim.Trace.all_kinds) 0;
    total = 0;
    sample = Vec.create dummy_event;
    cs_node = iv ();
    cs_op = iv ();
    cs_name = iv ();
    cs_time = fv ();
    pit_node = iv ();
    pit_op = iv ();
    pit_name = iv ();
    pit_face = iv ();
    pit_out = iv ();
    pit_time = fv ();
    fib_node = iv ();
    fib_name = iv ();
    eng_gen = iv ();
    eng_time = fv ();
    eng_depth = iv ();
    sign_name = iv ();
    producers;
    cand = false;
    cand_node = 0;
    cand_name = 0;
    cand_face = 0;
    cand_time = 0.;
    cand_cs = 0;
    orphans = 0;
  }

let node_id r label =
  let key = (r.gen, label) in
  match Hashtbl.find_opt r.node_ids key with
  | Some id -> id
  | None ->
    let id = Vec.length r.node_gen in
    Hashtbl.add r.node_ids key id;
    Vec.push r.node_gen r.gen;
    Vec.push r.node_label label;
    id

let name_id r s =
  match Hashtbl.find_opt r.name_ids s with
  | Some id -> id
  | None ->
    let id = Vec.length r.name_str in
    Hashtbl.add r.name_ids s id;
    Vec.push r.name_str s;
    id

let int_attr key (e : Sim.Trace.event) =
  match List.assoc_opt key e.Sim.Trace.attrs with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> 0)
  | None -> 0

let push_pit r ~node ~op ~name ~face ~out ~time =
  Vec.push r.pit_node node;
  Vec.push r.pit_op op;
  Vec.push r.pit_name name;
  Vec.push r.pit_face face;
  Vec.push r.pit_out out;
  Vec.push r.pit_time time

(* The interest in flight produced an insert with this outcome. *)
let consume r node out ~fib =
  if r.cand && r.cand_node = node then begin
    push_pit r ~node ~op:pit_insert ~name:r.cand_name ~face:r.cand_face ~out
      ~time:r.cand_time;
    if fib then begin
      Vec.push r.fib_node node;
      Vec.push r.fib_name r.cand_name
    end;
    r.cand <- false
  end
  else r.orphans <- r.orphans + 1

(* A CS miss always reaches [Pit.insert]; close an interest that left
   no outcome marker. *)
let finalize r =
  if r.cand then begin
    if r.cand_cs = 2 then
      push_pit r ~node:r.cand_node ~op:pit_insert ~name:r.cand_name
        ~face:r.cand_face ~out:out_unknown ~time:r.cand_time;
    r.cand <- false
  end

let on_event r (e : Sim.Trace.event) =
  r.total <- r.total + 1;
  let kid = Sim.Trace.kind_id e.Sim.Trace.kind in
  r.counts.(kid) <- r.counts.(kid) + 1;
  if Vec.length r.sample < sample_cap then Vec.push r.sample e;
  match e.Sim.Trace.kind with
  | Sim.Trace.Engine_step ->
    finalize r;
    Vec.push r.eng_gen r.gen;
    Vec.push r.eng_time e.Sim.Trace.time;
    Vec.push r.eng_depth (int_attr "depth" e)
  | Sim.Trace.Cs_hit | Sim.Trace.Cs_miss ->
    let node = node_id r e.Sim.Trace.node in
    let hit = e.Sim.Trace.kind = Sim.Trace.Cs_hit in
    let name =
      if r.cand && r.cand_node = node then begin
        r.cand_cs <- (if hit then 1 else 2);
        r.cand_name
      end
      else name_id r e.Sim.Trace.name
    in
    Vec.push r.cs_node node;
    Vec.push r.cs_op (if hit then 0 else 1);
    Vec.push r.cs_name name;
    Vec.push r.cs_time e.Sim.Trace.time
  | Sim.Trace.Cs_insert ->
    Vec.push r.cs_node (node_id r e.Sim.Trace.node);
    Vec.push r.cs_op 2;
    Vec.push r.cs_name (name_id r e.Sim.Trace.name);
    Vec.push r.cs_time e.Sim.Trace.time
  | Sim.Trace.Interest_received ->
    finalize r;
    r.cand <- true;
    r.cand_node <- node_id r e.Sim.Trace.node;
    r.cand_name <- name_id r e.Sim.Trace.name;
    r.cand_face <- int_attr "face" e;
    r.cand_time <- e.Sim.Trace.time;
    r.cand_cs <- 0
  | Sim.Trace.Interest_forwarded ->
    consume r (node_id r e.Sim.Trace.node) out_forward ~fib:true
  | Sim.Trace.Nack_no_route ->
    if r.cand then consume r (node_id r e.Sim.Trace.node) out_forward ~fib:true
  | Sim.Trace.Interest_collapsed ->
    consume r (node_id r e.Sim.Trace.node) out_collapsed ~fib:false
  | Sim.Trace.Nack_duplicate ->
    if r.cand then consume r (node_id r e.Sim.Trace.node) out_duplicate ~fib:false
  | Sim.Trace.Pit_drop ->
    if List.assoc_opt "reason" e.Sim.Trace.attrs = Some "reject" then
      consume r (node_id r e.Sim.Trace.node) out_rejected ~fib:false
  | Sim.Trace.Data_received ->
    finalize r;
    let node = node_id r e.Sim.Trace.node in
    let name = name_id r e.Sim.Trace.name in
    push_pit r ~node ~op:pit_satisfy ~name ~face:0 ~out:out_unknown
      ~time:e.Sim.Trace.time;
    if List.mem e.Sim.Trace.node r.producers then Vec.push r.sign_name name
  | _ -> ()

let count r kind = r.counts.(Sim.Trace.kind_id kind)

(* ------------------------------------------------------------------ *)
(* Re-drives.                                                          *)

type redrive = {
  calls : int;
  ns : float;  (** Net of timer overhead. *)
}

let per_call d = if d.calls = 0 then 0. else d.ns /. float_of_int d.calls

(* Every re-drive is deterministic, so each runs [reps] times (after a
   full major GC) and the fastest repetition is kept. *)
let reps = 3

let repeat f =
  List.init reps (fun _ ->
      ignore (M.gc ());
      f ())

let fastest ns l = List.fold_left (fun a x -> if ns x < ns a then x else a) (List.hd l) l
let fastest_redrive l = fastest (fun d -> d.ns) l

(* Engine: replay each network's dispatch sequence through a fresh
   [Sim.Engine].  Event [i] fires at the recorded time; its action
   schedules or cancels events so that the live queue depth seen by the
   next dispatch equals the recorded one.  Returns (events fired,
   deepest queue at a dispatch, timing). *)
let engine_redrive r =
  let n = Vec.length r.eng_gen in
  let fired_total = ref 0 and depth_max = ref 0 and ns = ref 0. in
  let seg_start = ref 0 in
  while !seg_start < n do
    let lo = !seg_start in
    let g = Vec.get r.eng_gen lo in
    let hi = ref lo in
    while !hi < n && Vec.get r.eng_gen !hi = g do
      incr hi
    done;
    let hi = !hi in
    let count = hi - lo in
    let times = Array.sub r.eng_time.Vec.a lo count in
    let depths = Array.sub r.eng_depth.Vec.a lo count in
    let e = Sim.Engine.create () in
    let dq = ref [||] in
    let dq_lo = ref 0 and dq_hi = ref 0 in
    let slot = ref 0 and fired = ref 0 in
    let rec thunk () =
      let entry_depth = Sim.Engine.pending e in
      if entry_depth > !depth_max then depth_max := entry_depth;
      incr dq_lo;
      let i = !fired in
      incr fired;
      let target = if i + 1 < count then depths.(i + 1) + 1 else 0 in
      let cur = Sim.Engine.pending e in
      if target > cur then
        for _ = 1 to target - cur do
          push ()
        done
      else
        for _ = 1 to cur - target do
          decr dq_hi;
          Sim.Engine.cancel !dq.(!dq_hi)
        done
    and push () =
      let time = times.(if !slot < count then !slot else count - 1) in
      incr slot;
      let h = Sim.Engine.schedule_at e ~time thunk in
      if !dq_hi = Array.length !dq then begin
        let live = !dq_hi - !dq_lo in
        let b = Array.make (max 1024 (2 * live + 1024)) h in
        Array.blit !dq !dq_lo b 0 live;
        dq := b;
        dq_lo := 0;
        dq_hi := live
      end;
      !dq.(!dq_hi) <- h;
      incr dq_hi
    in
    let t0 = now_ns () in
    for _ = 1 to depths.(0) + 1 do
      push ()
    done;
    while !fired < count && Sim.Engine.pending e > 0 do
      Sim.Engine.run ~max_events:(count - !fired) e
    done;
    ns := !ns +. ns_between t0 (now_ns ());
    fired_total := !fired_total + Sim.Engine.events_processed e;
    seg_start := hi
  done;
  (!fired_total, !depth_max, { calls = !fired_total; ns = !ns })

let names_of r = Array.init (Vec.length r.name_str) (fun i -> Ndn.Name.of_string (Vec.get r.name_str i))

let nodes_of r nets =
  let nets = Array.of_list nets in
  Array.init (Vec.length r.node_gen) (fun id ->
      let g = Vec.get r.node_gen id in
      if g < 0 || g >= Array.length nets then None
      else Ndn.Network.node nets.(g) (Vec.get r.node_label id))

let node_exn nodes id =
  match nodes.(id) with Some n -> n | None -> failwith "perfbench: traced node missing"

type cs_result = {
  lookups : redrive;
  inserts : redrive;
  cs_hits : int;
  cs_evictions : int;
  cs_hit_mismatches : int;
}

let cs_redrive r nodes names =
  let n = Vec.length r.cs_op in
  let stores = Hashtbl.create 64 in
  let store id =
    match Hashtbl.find_opt stores id with
    | Some s -> s
    | None ->
      let real = Ndn.Node.content_store (node_exn nodes id) in
      let s =
        Ndn.Content_store.create ~policy:(Ndn.Content_store.policy real)
          ~rng:(Sim.Rng.create 1) ~capacity:(Ndn.Content_store.capacity real) ()
      in
      Hashtbl.add stores id s;
      s
  in
  let data = Hashtbl.create 4096 in
  for i = 0 to n - 1 do
    ignore (store (Vec.get r.cs_node i));
    if Vec.get r.cs_op i = 2 then begin
      let nm = Vec.get r.cs_name i in
      if not (Hashtbl.mem data nm) then
        Hashtbl.add data nm
          (Ndn.Data.create ~producer:"perfbench" ~key:"perfbench" ~payload:"" names.(nm))
    end
  done;
  let stores = Array.init (Vec.length r.node_gen) (fun id -> Hashtbl.find_opt stores id) in
  let data = Array.init (Array.length names) (fun i -> Hashtbl.find_opt data i) in
  let lk_ns = ref 0. and lk = ref 0 and in_ns = ref 0. and ins = ref 0 in
  let hits = ref 0 and mismatches = ref 0 in
  for i = 0 to n - 1 do
    let cs = Option.get stores.(Vec.get r.cs_node i) in
    let now = Vec.get r.cs_time i in
    let op = Vec.get r.cs_op i in
    let nm = Vec.get r.cs_name i in
    if op = 2 then begin
      let d = Option.get data.(nm) in
      let t0 = now_ns () in
      Ndn.Content_store.insert cs ~now d ();
      let t1 = now_ns () in
      in_ns := !in_ns +. ns_between t0 t1;
      incr ins
    end
    else begin
      let t0 = now_ns () in
      let res = Ndn.Content_store.lookup cs ~now names.(nm) in
      let t1 = now_ns () in
      lk_ns := !lk_ns +. ns_between t0 t1;
      incr lk;
      let hit = Option.is_some res in
      if hit then incr hits;
      if hit <> (op = 0) then incr mismatches
    end
  done;
  let evictions =
    Array.fold_left
      (fun acc s ->
        match s with
        | Some s -> acc + (Ndn.Content_store.counters s).Ndn.Content_store.evictions
        | None -> acc)
      0 stores
  in
  {
    lookups = { calls = !lk; ns = net_ns !lk_ns !lk };
    inserts = { calls = !ins; ns = net_ns !in_ns !ins };
    cs_hits = !hits;
    cs_evictions = evictions;
    cs_hit_mismatches = !mismatches;
  }

type pit_result = {
  p_inserts : redrive;
  p_satisfies : redrive;
  p_expires : redrive;
  p_collapsed : int;
  p_rejected : int;
  p_expired : int;
  p_outcome_mismatches : int;
}

(* Sweeps follow the node: a [Forward] at [t] arms [Pit.expire] at
   [t + lifetime + 1], which fires before any same-node record at that
   instant and only while the network still had events to run. *)
let pit_redrive r nodes names ~lifetime ~last_time =
  let n = Vec.length r.pit_op in
  let nnodes = Vec.length r.node_gen in
  let pits =
    Array.init nnodes (fun id ->
        match nodes.(id) with
        | None -> None
        | Some node ->
          let real = Ndn.Node.pit node in
          Some
            ( Ndn.Pit.create
                ~lifetime_ms:(lifetime (Vec.get r.node_label id))
                ?capacity:(Ndn.Pit.capacity real)
                ~admission:(Ndn.Pit.admission_policy real) (),
              lifetime (Vec.get r.node_label id) ))
  in
  let sweeps = Array.init nnodes (fun _ -> Queue.create ()) in
  let ins_ns = ref 0. and ins = ref 0 in
  let sat_ns = ref 0. and sat = ref 0 in
  let exp_ns = ref 0. and exps = ref 0 in
  let collapsed = ref 0 and rejected = ref 0 and expired = ref 0 in
  let mismatches = ref 0 in
  let sweep pit q ~upto =
    while (not (Queue.is_empty q)) && Queue.peek q <= upto do
      let now = Queue.pop q in
      let t0 = now_ns () in
      let dropped = Ndn.Pit.expire pit ~now in
      let t1 = now_ns () in
      exp_ns := !exp_ns +. ns_between t0 t1;
      incr exps;
      expired := !expired + List.length dropped
    done
  in
  for i = 0 to n - 1 do
    let id = Vec.get r.pit_node i in
    match pits.(id) with
    | None -> ()
    | Some (pit, life) ->
      let now = Vec.get r.pit_time i in
      sweep pit sweeps.(id) ~upto:now;
      let nm = names.(Vec.get r.pit_name i) in
      if Vec.get r.pit_op i = pit_insert then begin
        let face = Vec.get r.pit_face i in
        let t0 = now_ns () in
        let res = Ndn.Pit.insert pit ~now ~face ~nonce:(Int64.of_int i) nm in
        let t1 = now_ns () in
        ins_ns := !ins_ns +. ns_between t0 t1;
        incr ins;
        let code =
          match res with
          | Ndn.Pit.Forward ->
            Queue.push (now +. life +. 1.) sweeps.(id);
            out_forward
          | Ndn.Pit.Collapsed ->
            incr collapsed;
            out_collapsed
          | Ndn.Pit.Duplicate -> out_duplicate
          | Ndn.Pit.Rejected ->
            incr rejected;
            out_rejected
        in
        let expected = Vec.get r.pit_out i in
        if expected <> out_unknown && expected <> code then incr mismatches
      end
      else begin
        let t0 = now_ns () in
        ignore (Ndn.Pit.satisfy_timed pit nm);
        let t1 = now_ns () in
        sat_ns := !sat_ns +. ns_between t0 t1;
        incr sat
      end
  done;
  Array.iteri
    (fun id q ->
      match pits.(id) with
      | Some (pit, _) -> sweep pit q ~upto:(last_time (Vec.get r.node_gen id))
      | None -> ())
    sweeps;
  {
    p_inserts = { calls = !ins; ns = net_ns !ins_ns !ins };
    p_satisfies = { calls = !sat; ns = net_ns !sat_ns !sat };
    p_expires = { calls = !exps; ns = net_ns !exp_ns !exps };
    p_collapsed = !collapsed;
    p_rejected = !rejected;
    p_expired = !expired;
    p_outcome_mismatches = !mismatches;
  }

let fib_redrive r nodes names =
  let n = Vec.length r.fib_node in
  let fibs = Array.init n (fun i -> Ndn.Node.fib (node_exn nodes (Vec.get r.fib_node i))) in
  let qs = Array.init n (fun i -> names.(Vec.get r.fib_name i)) in
  let routed = ref 0 in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    match Ndn.Fib.next_hops fibs.(i) qs.(i) with [] -> () | _ -> incr routed
  done;
  { calls = n; ns = ns_between t0 (now_ns ()) }

let sign_redrive r names ~payload =
  let n = Vec.length r.sign_name in
  let payload = String.make payload 'p' in
  let qs = Array.init n (fun i -> names.(Vec.get r.sign_name i)) in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    ignore (Ndn.Data.create ~producer:"perfbench" ~key:"perfbench-key" ~payload qs.(i))
  done;
  { calls = n; ns = ns_between t0 (now_ns ()) }

let encode_redrive r =
  let n = Vec.length r.sample in
  let enc = Sim.Trace.encoder_create () in
  let t0 = now_ns () in
  Sim.Trace.encoder_add_header enc;
  for i = 0 to n - 1 do
    if i land 4095 = 4095 then begin
      Sim.Trace.encoder_reset enc;
      Sim.Trace.encoder_add_header enc
    end;
    Sim.Trace.encode_event enc (Vec.get r.sample i)
  done;
  { calls = n; ns = ns_between t0 (now_ns ()) }

(* ------------------------------------------------------------------ *)
(* GC profile of one untraced op.                                      *)

type gc_profile = {
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  gc_time_s : float;
  lost_events : int;
}

(* Time inside runtime phases (the union of begin/end intervals), read
   from the runtime's own event ring through [Runtime_events]. *)
let gc_profile (w : W.t) ~seed =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let depth = ref 0 and started = ref 0L and total = ref 0L and lost = ref 0 in
  let ts = Runtime_events.Timestamp.to_int64 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t _ ->
        if !depth = 0 then started := ts t;
        incr depth)
      ~runtime_end:(fun _ t _ ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then total := Int64.add !total (Int64.sub (ts t) !started)
        end)
      ~lost_events:(fun _ k -> lost := !lost + k)
      ()
  in
  let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
  let op = w.W.make ~seed ~tracer:(fun () -> Sim.Trace.disabled) in
  ignore (M.gc ());
  poll ();
  depth := 0;
  total := 0L;
  lost := 0;
  let s0 = Gc.quick_stat () in
  op.W.run ();
  let s1 = Gc.quick_stat () in
  poll ();
  Runtime_events.free_cursor cursor;
  Runtime_events.pause ();
  ( {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
      gc_time_s = Int64.to_float !total *. 1e-9;
      lost_events = !lost;
    },
    op )

(* ------------------------------------------------------------------ *)
(* Per-layer metric sets.                                              *)

(* Every per-layer metric, in the order BENCHMARK.json lists them, with
   its unit.  A workload that does not route through a layer reports 0
   for it (see perfbench/layers.json). *)
let metric_units =
  [
    ("engine.events", "count");
    ("engine.events_per_request", "events/request");
    ("engine.ns_per_event", "ns");
    ("engine.pending_max", "count");
    ("cs.lookups", "count");
    ("cs.hit_ratio", "ratio");
    ("cs.lookup_ns", "ns");
    ("cs.inserts", "count");
    ("cs.evictions", "count");
    ("cs.insert_ns", "ns");
    ("pit.inserts", "count");
    ("pit.collapsed", "count");
    ("pit.expired", "count");
    ("pit.insert_ns", "ns");
    ("pit.expire_ns", "ns");
    ("pit.rejected", "count");
    ("fib.lookups", "count");
    ("fib.lookup_ns", "ns");
    ("link.tx", "count");
    ("link.drops", "count");
    ("queue.drops", "count");
    ("nack.sent", "count");
    ("node.interests_received", "count");
    ("node.interests_forwarded", "count");
    ("node.data_sent", "count");
    ("node.useful_ratio", "ratio");
    ("name.constructed", "count");
    ("name.make_ns", "ns");
    ("crypto.signs", "count");
    ("crypto.sign_ns", "ns");
    ("policy.decisions", "count");
    ("policy.decide_ns", "ns");
    ("policy.hidden_hit_ratio", "ratio");
    ("topology.build_s", "s");
    ("ircache.generate_s", "s");
    ("gc.minor_words_per_request", "words/request");
    ("gc.promoted_words_per_request", "words/request");
    ("gc.major_collections", "count");
    ("gc.time_s", "s");
    ("trace.events", "count");
    ("trace.encode_ns", "ns");
    ("trace.overhead_ratio", "ratio");
    ("layers.timed_s", "s");
    ("layers.residual_share", "ratio");
  ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The result of a traced run: metric values (by name) and the checks
   that failed. *)
type result = { values : (string * float) list; failures : string list }

let check failures name expected got =
  if expected <> got then
    failures := Printf.sprintf "%s: re-drive %d <> untraced %d" name got expected :: !failures

let finalize_values values =
  List.map
    (fun (name, unit) ->
      let v = match List.assoc_opt name values with Some v -> v | None -> 0. in
      (name, unit, if Float.is_finite v then v else 0.))
    metric_units

(* Network workloads: one traced op, re-drives, and the counter checks
   against the untraced op [(digest, networks)]. *)
let network_layers (w : W.t) ~seed ~untraced_digest ~untraced_ratio ~setup_ratio =
  (* The GC-profiled op is also the untraced reference for counters. *)
  let gcp, ref_op = gc_profile w ~seed in
  let ref_digest, _ = ref_op.W.finish () in
  let untraced_nets = ref_op.W.networks () in
  let r = recorder ~producers:w.W.producers in
  let tracer () =
    r.gen <- r.gen + 1;
    Sim.Trace.with_sink (on_event r)
  in
  let op = w.W.make ~seed ~tracer in
  let _, traced_ratio, () = M.paired op.W.run in
  finalize r;
  let traced_digest, bad = op.W.finish () in
  let failures = ref bad in
  if ref_digest <> untraced_digest then
    failures := "GC-profiled op digest differs from the timed ops'" :: !failures;
  if traced_digest <> untraced_digest then
    failures :=
      Printf.sprintf "traced digest %s <> untraced %s" (W.digest_to_string traced_digest)
        (W.digest_to_string untraced_digest)
      :: !failures;
  let nets = op.W.networks () in
  let nodes = nodes_of r nets in
  let names = names_of r in
  (* Untraced counters, summed over every node of every network. *)
  let nsum f = W.node_sum untraced_nets f in
  let cs_sum f =
    W.sum
      (fun net ->
        W.sum
          (fun (_, n) -> f (Ndn.Content_store.counters (Ndn.Node.content_store n)))
          (Ndn.Network.nodes net))
      untraced_nets
  in
  let pit_sum f =
    W.sum
      (fun net -> W.sum (fun (_, n) -> f (Ndn.Node.pit n)) (Ndn.Network.nodes net))
      untraced_nets
  in
  let producers_received =
    W.sum
      (fun net ->
        W.sum
          (fun (label, n) ->
            if List.mem label w.W.producers then (Ndn.Node.counters n).Ndn.Node.data_received
            else 0)
          (Ndn.Network.nodes net))
      untraced_nets
  in
  (* Kernels around the re-drives give the host speed they ran at. *)
  let k_before = M.kernel_s () in
  (* Engine *)
  let fired, depth_max, eng =
    fastest (fun (_, _, d) -> d.ns) (repeat (fun () -> engine_redrive r))
  in
  let trace_depth_max = ref 0 in
  for i = 0 to Vec.length r.eng_depth - 1 do
    if Vec.get r.eng_depth i > !trace_depth_max then trace_depth_max := Vec.get r.eng_depth i
  done;
  check failures "engine.events" untraced_digest.W.events fired;
  check failures "engine.pending_max" !trace_depth_max depth_max;
  (* Content Store *)
  let cs =
    match repeat (fun () -> cs_redrive r nodes names) with
    | first :: _ as l ->
      {
        first with
        lookups = fastest_redrive (List.map (fun c -> c.lookups) l);
        inserts = fastest_redrive (List.map (fun c -> c.inserts) l);
      }
    | [] -> assert false
  in
  check failures "cs.hits" (cs_sum (fun c -> c.Ndn.Content_store.hits)) cs.cs_hits;
  check failures "cs.lookups" (cs_sum (fun c -> c.Ndn.Content_store.lookups)) cs.lookups.calls;
  check failures "cs.inserts" (cs_sum (fun c -> c.Ndn.Content_store.insertions)) cs.inserts.calls;
  check failures "cs.evictions" (cs_sum (fun c -> c.Ndn.Content_store.evictions)) cs.cs_evictions;
  check failures "cs.hit (trace)" (count r Sim.Trace.Cs_hit) cs.cs_hits;
  check failures "cs.per-op hit/miss" 0 cs.cs_hit_mismatches;
  (* PIT: NACKs remove entries out of band ([Pit.take] on arrival leaves
     no trace record), so the re-drive is exact only without NACKs. *)
  let last_time =
    let last = Hashtbl.create 16 in
    for i = 0 to Vec.length r.eng_gen - 1 do
      Hashtbl.replace last (Vec.get r.eng_gen i) (Vec.get r.eng_time i)
    done;
    fun g -> Option.value (Hashtbl.find_opt last g) ~default:0.
  in
  let pit =
    match repeat (fun () -> pit_redrive r nodes names ~lifetime:w.W.pit_lifetime ~last_time) with
    | first :: _ as l ->
      {
        first with
        p_inserts = fastest_redrive (List.map (fun p -> p.p_inserts) l);
        p_satisfies = fastest_redrive (List.map (fun p -> p.p_satisfies) l);
        p_expires = fastest_redrive (List.map (fun p -> p.p_expires) l);
      }
    | [] -> assert false
  in
  let nacks = nsum (fun c -> c.Ndn.Node.nacks_received) in
  let pit_exact = nacks = 0 in
  if pit_exact then begin
    check failures "pit.collapsed" (nsum (fun c -> c.Ndn.Node.interests_collapsed)) pit.p_collapsed;
    check failures "pit.rejected" (pit_sum Ndn.Pit.rejections) pit.p_rejected;
    check failures "pit.expired (trace)" (count r Sim.Trace.Pit_timeout) pit.p_expired;
    check failures "pit.per-insert outcome" 0 pit.p_outcome_mismatches
  end;
  check failures "pit.collapsed (trace)" (nsum (fun c -> c.Ndn.Node.interests_collapsed))
    (count r Sim.Trace.Interest_collapsed);
  check failures "pit markers without an interest" 0 r.orphans;
  (* FIB *)
  let fib = fastest_redrive (repeat (fun () -> fib_redrive r nodes names)) in
  check failures "fib.lookups"
    (nsum (fun c ->
         c.Ndn.Node.interests_forwarded + c.Ndn.Node.no_route_drops + c.Ndn.Node.scope_drops))
    fib.calls;
  (* Producer signing *)
  let sign = fastest_redrive (repeat (fun () -> sign_redrive r names ~payload:w.W.payload)) in
  check failures "crypto.signs" producers_received sign.calls;
  (* NACKs *)
  let nack_sent =
    count r Sim.Trace.Nack_congested + count r Sim.Trace.Nack_no_route
    + count r Sim.Trace.Nack_pit_full + count r Sim.Trace.Nack_duplicate
  in
  check failures "nack.sent" (nsum (fun c -> c.Ndn.Node.nacks_sent)) nack_sent;
  let enc = fastest_redrive (repeat (fun () -> encode_redrive r)) in
  let k_after = M.kernel_s () in
  if gcp.lost_events > 0 then
    failures := Printf.sprintf "runtime events lost: %d" gcp.lost_events :: !failures;
  let requests = untraced_digest.W.requests in
  let timed_ns =
    eng.ns +. cs.lookups.ns +. cs.inserts.ns +. pit.p_inserts.ns +. pit.p_satisfies.ns
    +. pit.p_expires.ns +. fib.ns +. sign.ns
  in
  let timed_s = timed_ns *. 1e-9 in
  let untraced_now_s = untraced_ratio *. (k_before +. k_after) /. 2. in
  let values =
    [
      ("engine.events", float_of_int fired);
      ("engine.events_per_request", ratio fired requests);
      ("engine.ns_per_event", per_call eng);
      ("engine.pending_max", float_of_int depth_max);
      ("cs.lookups", float_of_int cs.lookups.calls);
      ("cs.hit_ratio", ratio cs.cs_hits cs.lookups.calls);
      ("cs.lookup_ns", per_call cs.lookups);
      ("cs.inserts", float_of_int cs.inserts.calls);
      ("cs.evictions", float_of_int cs.cs_evictions);
      ("cs.insert_ns", per_call cs.inserts);
      ("pit.inserts", float_of_int pit.p_inserts.calls);
      ("pit.collapsed", float_of_int (count r Sim.Trace.Interest_collapsed));
      ("pit.expired", float_of_int (count r Sim.Trace.Pit_timeout));
      ("pit.insert_ns", per_call pit.p_inserts);
      ("pit.expire_ns", per_call pit.p_expires);
      ("pit.rejected", float_of_int (pit_sum Ndn.Pit.rejections));
      ("fib.lookups", float_of_int fib.calls);
      ("fib.lookup_ns", per_call fib);
      ("link.tx", float_of_int (count r Sim.Trace.Link_transmit));
      ("link.drops", float_of_int (count r Sim.Trace.Link_drop));
      ("queue.drops", float_of_int (count r Sim.Trace.Queue_drop));
      ("nack.sent", float_of_int nack_sent);
      ("node.interests_received", float_of_int (nsum (fun c -> c.Ndn.Node.interests_received)));
      ("node.interests_forwarded", float_of_int (nsum (fun c -> c.Ndn.Node.interests_forwarded)));
      ("node.data_sent", float_of_int (nsum (fun c -> c.Ndn.Node.data_sent)));
      ("node.useful_ratio", ratio untraced_digest.W.responses requests);
      ("crypto.signs", float_of_int sign.calls);
      ("crypto.sign_ns", per_call sign);
      ("topology.build_s", setup_ratio *. M.kernel_ref_s);
      ("gc.minor_words_per_request", gcp.minor_words /. float_of_int (max 1 requests));
      ("gc.promoted_words_per_request", gcp.promoted_words /. float_of_int (max 1 requests));
      ("gc.major_collections", float_of_int gcp.major_collections);
      ("gc.time_s", gcp.gc_time_s);
      ("trace.events", float_of_int r.total);
      ("trace.encode_ns", per_call enc);
      ("trace.overhead_ratio", traced_ratio /. untraced_ratio);
      ("layers.timed_s", timed_s);
      ("layers.residual_share", (untraced_now_s -. timed_s) /. untraced_now_s);
    ]
  in
  let notes = if pit_exact then [] else [ "pit re-drive not exact: NACKs take entries" ] in
  ({ values; failures = List.rev !failures }, notes)

(* Private-content coin of [Workload.Replay] (per-content mode). *)
let content_private ~seed ~fraction content =
  let rng = Sim.Rng.create ((content * 0x9E3779B1) lxor (seed * 0x85EBCA77)) in
  Sim.Rng.bernoulli rng fraction

(* fig5-replay: the [Replay.replay] loop, each layer call timed. *)
type replay_pass = {
  pass_s : float;
  name_d : redrive;
  lookup_d : redrive;
  policy_d : redrive;
  insert_d : redrive;
  sign_d : redrive;
  observable : int;
  real : int;
  hidden : int;
  private_n : int;
  counters : Ndn.Content_store.counters;
}

let replay_pass trace (config : Workload.Replay.config) ~fraction =
  let t_start = now_ns () in
  let rng = Sim.Rng.create config.Workload.Replay.seed in
  let cs_rng = Sim.Rng.split rng in
  let cs =
    Ndn.Content_store.create ~policy:config.Workload.Replay.eviction ~rng:cs_rng
      ~capacity:config.Workload.Replay.cache_capacity ()
  in
  let policy =
    Core.Policy.create ~grouping:config.Workload.Replay.grouping ~rng
      config.Workload.Replay.policy
  in
  (* Replay splits its request-privacy stream here; the split advances
     the handle the policy draws from. *)
  ignore (Sim.Rng.split rng);
  let interned = Hashtbl.create 4096 in
  let name_ns = ref 0. and lk_ns = ref 0. and pol_ns = ref 0. in
  let ins_ns = ref 0. and sign_ns = ref 0. in
  let signs = ref 0 and inserts = ref 0 in
  let observable = ref 0 and real = ref 0 and hidden = ref 0 and priv_n = ref 0 in
  Workload.Trace.iter trace ~f:(fun rcd ->
      let t0 = now_ns () in
      let name = Workload.Trace.name_of rcd.Workload.Trace.content in
      let t1 = now_ns () in
      name_ns := !name_ns +. ns_between t0 t1;
      let now = rcd.Workload.Trace.time_s *. 1000. in
      let t0 = now_ns () in
      let cached = Option.is_some (Ndn.Content_store.lookup cs ~now ~exact:true name) in
      let t1 = now_ns () in
      lk_ns := !lk_ns +. ns_between t0 t1;
      let priv =
        content_private ~seed:config.Workload.Replay.seed ~fraction rcd.Workload.Trace.content
      in
      if priv then incr priv_n;
      if cached then incr real;
      let t0 = now_ns () in
      let out = Core.Policy.on_request policy ~name ~is_private:priv ~cached in
      let t1 = now_ns () in
      pol_ns := !pol_ns +. ns_between t0 t1;
      (match out with
      | Core.Random_cache.Hit -> incr observable
      | Core.Random_cache.Miss -> if cached then incr hidden);
      if not cached then begin
        let content = rcd.Workload.Trace.content in
        let d =
          match Hashtbl.find_opt interned content with
          | Some d -> d
          | None ->
            let t0 = now_ns () in
            let d =
              Ndn.Data.create ~producer:"trace-origin" ~key:"trace-origin-key" ~payload:"" name
            in
            let t1 = now_ns () in
            sign_ns := !sign_ns +. ns_between t0 t1;
            incr signs;
            if Hashtbl.length interned < 300_000 then Hashtbl.add interned content d;
            d
        in
        let t0 = now_ns () in
        Ndn.Content_store.insert cs ~now d ();
        let t1 = now_ns () in
        ins_ns := !ins_ns +. ns_between t0 t1;
        incr inserts
      end);
  let requests = Workload.Trace.length trace in
  {
    pass_s = ns_between t_start (now_ns ()) *. 1e-9;
    name_d = { calls = requests; ns = net_ns !name_ns requests };
    lookup_d = { calls = requests; ns = net_ns !lk_ns requests };
    policy_d = { calls = requests; ns = net_ns !pol_ns requests };
    insert_d = { calls = !inserts; ns = net_ns !ins_ns !inserts };
    sign_d = { calls = !signs; ns = net_ns !sign_ns !signs };
    observable = !observable;
    real = !real;
    hidden = !hidden;
    private_n = !priv_n;
    counters = Ndn.Content_store.counters cs;
  }

(* fig5-replay: the [Replay.replay] loop with each layer call timed,
   checked against the untraced [Replay.replay] outcome. *)
let replay_layers ~seed ~untraced_ratio ~setup_ratio =
  let trace = Workload.Ircache.generate (W.fig5_trace_config ~seed) in
  let config = W.fig5_replay_config ~seed in
  let untraced = Workload.Replay.replay trace config in
  let fraction =
    match config.Workload.Replay.private_mode with
    | Workload.Replay.Per_content f | Workload.Replay.Per_request f -> f
  in
  let k_before = M.kernel_s () in
  let passes = repeat (fun () -> replay_pass trace config ~fraction) in
  let k_after = M.kernel_s () in
  let untraced_now_s = untraced_ratio *. (k_before +. k_after) /. 2. in
  let p = List.hd passes in
  let pick f = fastest_redrive (List.map f passes) in
  let name_d = pick (fun p -> p.name_d) and lk_d = pick (fun p -> p.lookup_d) in
  let pol_d = pick (fun p -> p.policy_d) and ins_d = pick (fun p -> p.insert_d) in
  let sign_d = pick (fun p -> p.sign_d) in
  let traced_s = List.fold_left (fun a p -> Float.min a p.pass_s) Float.infinity passes in
  let requests = Workload.Trace.length trace in
  let failures = ref [] in
  let u = untraced in
  check failures "observable_hits" u.Workload.Replay.observable_hits p.observable;
  check failures "real_hits" u.Workload.Replay.real_hits p.real;
  check failures "hidden_hits" u.Workload.Replay.hidden_hits p.hidden;
  check failures "private_requests" u.Workload.Replay.private_requests p.private_n;
  check failures "evictions" u.Workload.Replay.evictions p.counters.Ndn.Content_store.evictions;
  check failures "cs.hits" u.Workload.Replay.real_hits p.counters.Ndn.Content_store.hits;
  let timed_s = (name_d.ns +. lk_d.ns +. pol_d.ns +. ins_d.ns +. sign_d.ns) *. 1e-9 in
  let gcp, _ = gc_profile W.fig5_replay ~seed in
  if gcp.lost_events > 0 then
    failures := Printf.sprintf "runtime events lost: %d" gcp.lost_events :: !failures;
  let values =
    [
      ("cs.lookups", float_of_int requests);
      ("cs.hit_ratio", ratio p.counters.Ndn.Content_store.hits requests);
      ("cs.lookup_ns", per_call lk_d);
      ("cs.inserts", float_of_int ins_d.calls);
      ("cs.evictions", float_of_int p.counters.Ndn.Content_store.evictions);
      ("cs.insert_ns", per_call ins_d);
      ("node.useful_ratio", 1.);
      ("name.constructed", float_of_int requests);
      ("name.make_ns", per_call name_d);
      ("crypto.signs", float_of_int sign_d.calls);
      ("crypto.sign_ns", per_call sign_d);
      ("policy.decisions", float_of_int requests);
      ("policy.decide_ns", per_call pol_d);
      ("policy.hidden_hit_ratio", ratio p.hidden p.real);
      ("ircache.generate_s", setup_ratio *. M.kernel_ref_s);
      ("gc.minor_words_per_request", gcp.minor_words /. float_of_int (max 1 requests));
      ("gc.promoted_words_per_request", gcp.promoted_words /. float_of_int (max 1 requests));
      ("gc.major_collections", float_of_int gcp.major_collections);
      ("gc.time_s", gcp.gc_time_s);
      ("trace.overhead_ratio", traced_s /. untraced_now_s);
      ("layers.timed_s", timed_s);
      ("layers.residual_share", (untraced_now_s -. timed_s) /. untraced_now_s);
    ]
  in
  ({ values; failures = List.rev !failures }, [])
