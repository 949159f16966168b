(* bench core: the machine-readable perf-regression harness.

   Measures the hot paths that the zero-allocation work targets —
   engine event churn, content-store exact-hit and insert/evict mixes
   per eviction policy, and one end-to-end Figure 3 LAN campaign — and
   writes BENCH_core.json for CI and for before/after comparisons.

   Hard checks run here rather than in a test:
   - the CS exact-hit path with tracing disabled must stay within
     [cs_hit_alloc_ceiling] minor words per lookup (the zero-allocation
     contract), a CS non-exact miss on a store of equal-length names
     within [cs_miss_alloc_ceiling], a FIB longest-prefix hit
     within [fib_lookup_alloc_ceiling], an LRU insert that evicts within
     [cs_insert_lru_alloc_ceiling] and a PIT insert + satisfy within
     [pit_insert_satisfy_alloc_ceiling]; exceeding any makes the process
     exit non-zero, which fails the CI bench-smoke job;
   - the engine-churn timing is measured twice, once against a verbatim
     copy of the pre-rewrite boxed heap + handle-per-schedule engine
     (module [Baseline] below), so the JSON carries an honest
     before/after pair from the same binary, same workload, same
     machine. *)

let clock_ns () = Int64.to_float (Monotonic_clock.now ())

(* Minor words per exact-hit lookup the CS is allowed to cost with
   tracing disabled.  The true value is 0.0; the epsilon absorbs the
   harness's own bracketing (two boxed clock reads per measured run).
   Checked in deliberately — raising it is a reviewed decision, not a
   drift. *)
let cs_hit_alloc_ceiling = 0.01

(* The same contract for a non-exact CS miss when no cached name is
   longer than the query: the length census answers it without the
   prefix index or a closure, so the true value is 0.0. *)
let cs_miss_alloc_ceiling = 0.01

(* The same contract for a FIB longest-prefix hit: the value-only
   [Name_trie] query builds no prefix name, so the true value is 0.0
   here too. *)
let fib_lookup_alloc_ceiling = 0.01

(* Minor words per LRU insert into a full store (one eviction each):
   the entry record (6 words), its [Some] cell (2) and the boxed [now]
   the workload passes (2).  Slots, recency links and the name index
   are preallocated int and name arrays, so nothing else allocates. *)
let cs_insert_lru_alloc_ceiling = 10.01

(* Minor words per PIT insert of a new name followed by its satisfy,
   the forwarder's common round trip: the arrival list cell and its
   (face, nonce) pair at insert (6 words); the matched-slot list cell,
   the face list cell, the result pair and the [Some] boxed creation
   time at satisfy (13).  Slots, the expiry ring and the name index
   allocate nothing. *)
let pit_insert_satisfy_alloc_ceiling = 19.01

(* ------------------------------------------------------------------ *)
(* Baseline: the pre-rewrite event queue, kept verbatim (boxed
   (time, seq, payload) entries, a fresh handle record per schedule, an
   option-tuple pop) so the speedup claim in BENCH_core.json is
   measured, not remembered. *)

module Baseline = struct
  module Old_heap = struct
    type 'a entry = { time : float; seq : int; payload : 'a }
    type 'a t = { mutable data : 'a entry array; mutable size : int }

    let create () = { data = [||]; size = 0 }

    let key_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

    let grow t entry =
      let cap = Array.length t.data in
      if t.size = cap then begin
        let ncap = max 16 (2 * cap) in
        let ndata = Array.make ncap entry in
        Array.blit t.data 0 ndata 0 t.size;
        t.data <- ndata
      end

    let rec sift_up t i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if key_lt t.data.(i) t.data.(parent) then begin
          let tmp = t.data.(i) in
          t.data.(i) <- t.data.(parent);
          t.data.(parent) <- tmp;
          sift_up t parent
        end
      end

    let rec sift_down t i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < t.size && key_lt t.data.(l) t.data.(!smallest) then smallest := l;
      if r < t.size && key_lt t.data.(r) t.data.(!smallest) then smallest := r;
      if !smallest <> i then begin
        let tmp = t.data.(i) in
        t.data.(i) <- t.data.(!smallest);
        t.data.(!smallest) <- tmp;
        sift_down t !smallest
      end

    let add t ~time ~seq payload =
      let entry = { time; seq; payload } in
      grow t entry;
      t.data.(t.size) <- entry;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)

    let peek_min t =
      if t.size = 0 then None
      else
        let e = t.data.(0) in
        Some (e.time, e.seq, e.payload)

    let pop_min t =
      if t.size = 0 then None
      else begin
        let e = t.data.(0) in
        t.size <- t.size - 1;
        if t.size > 0 then begin
          t.data.(0) <- t.data.(t.size);
          sift_down t 0
        end;
        Some (e.time, e.seq, e.payload)
      end
  end

  type state = Pending | Fired | Cancelled

  type handle = { mutable state : state; action : unit -> unit }

  type t = {
    queue : handle Old_heap.t;
    mutable clock : float;
    mutable next_seq : int;
    mutable processed : int;
    mutable cancelled_queued : int;
    tracer : Sim.Trace.t;
  }

  let create () =
    {
      queue = Old_heap.create ();
      clock = 0.;
      next_seq = 0;
      processed = 0;
      cancelled_queued = 0;
      tracer = Sim.Trace.disabled;
    }

  let schedule t ~delay f =
    let delay = if delay < 0. then 0. else delay in
    let h = { state = Pending; action = f } in
    Old_heap.add t.queue ~time:(t.clock +. delay) ~seq:t.next_seq h;
    t.next_seq <- t.next_seq + 1;
    h

  let cancel t h =
    if h.state = Pending then begin
      h.state <- Cancelled;
      t.cancelled_queued <- t.cancelled_queued + 1
    end

  let step t =
    match Old_heap.pop_min t.queue with
    | None -> false
    | Some (time, _seq, h) ->
      t.clock <- time;
      (match h.state with
      | Cancelled -> t.cancelled_queued <- t.cancelled_queued - 1
      | Fired -> ()
      | Pending ->
        h.state <- Fired;
        t.processed <- t.processed + 1;
        if Sim.Trace.enabled t.tracer then
          Sim.Trace.emit t.tracer
            {
              Sim.Trace.time;
              node = "engine";
              kind = Sim.Trace.Engine_step;
              name = "";
              attrs = [];
            };
        h.action ());
      true

  (* The pre-rewrite [Engine.run] inner step: peek to test the [until]
     bound, then pop — the double traversal (and double option-tuple
     allocation) per event that [pop_if_min_before]/[min_time] replaced. *)
  let run_one t ~until =
    match Old_heap.peek_min t.queue with
    | None -> false
    | Some (time, _, _) ->
      if time > until then false
      else begin
        ignore (step t);
        true
      end
end

(* ------------------------------------------------------------------ *)
(* Engine churn: steady-state schedule/cancel/fire traffic over a
   ~[depth]-deep queue — the inner loop of every simulated experiment.
   One op = one schedule (every 4th immediately cancelled, exercising
   the lazy cancelled-pop drain) + one step.  The same workload, same
   pseudo-delays, runs against the baseline engine above.  Depth 4096
   matches the pending-event population of the trace-driven fig5
   campaigns (one in-flight timer per client plus per-hop forwarding
   events); the boxed baseline degrades faster with depth because every
   sift level chases an entry pointer where the SoA heap reads a flat
   float array. *)

let churn_depth = 4096

(* Pseudo-random-looking delays, precomputed: [(i * 7919) land 1023] has
   period 1024 in [i], so a 1024-entry table covers every op.  Both
   sides of the before/after pair read the same table — the per-op
   workload cost outside the engine is one unboxed array load, so it
   dilutes the measured ratio as little as possible. *)
let churn_delays =
  Array.init 1024 (fun i -> float_of_int (((i * 7919) land 1023) + 1))

let churn_delay i = Array.unsafe_get churn_delays (i land 1023)

let nop () = ()

let churn_new ops =
  let e = Sim.Engine.create () in
  for i = 1 to churn_depth do
    ignore (Sim.Engine.schedule e ~delay:(churn_delay i) nop)
  done;
  for i = 1 to ops do
    let h = Sim.Engine.schedule e ~delay:(churn_delay i) nop in
    if i land 3 = 0 then Sim.Engine.cancel h;
    ignore (Sim.Engine.step e)
  done

let churn_baseline ops =
  let e = Baseline.create () in
  for i = 1 to churn_depth do
    ignore (Baseline.schedule e ~delay:(churn_delay i) nop)
  done;
  for i = 1 to ops do
    let h = Baseline.schedule e ~delay:(churn_delay i) nop in
    if i land 3 = 0 then Baseline.cancel e h;
    ignore (Baseline.run_one e ~until:infinity)
  done

(* ------------------------------------------------------------------ *)
(* Content-store workloads. *)

let cs_names =
  lazy
    (Array.init 1024 (fun i ->
         Ndn.Name.of_string (Printf.sprintf "/bench/ns%d/content/%d" (i mod 16) i)))

let cs_data =
  lazy
    (Array.map
       (fun n -> Ndn.Data.create ~producer:"bench" ~key:"k" ~payload:"x" n)
       (Lazy.force cs_names))

(* Exact-hit: every lookup hits a resident, never-stale entry with
   tracing disabled — the zero-allocation contract.  [now] is hoisted so
   the loop passes one boxed float instead of boxing a fresh one per
   call. *)
let cs_hit_workload () =
  let names = Lazy.force cs_names in
  let data = Lazy.force cs_data in
  let cs = Ndn.Content_store.create ~capacity:512 () in
  for i = 0 to 511 do
    Ndn.Content_store.insert cs ~now:0. data.(i) ()
  done;
  let now = 1.0 in
  fun ops ->
    for i = 1 to ops do
      ignore (Ndn.Content_store.find_exact cs ~now names.(i land 511))
    done

(* Extension miss: non-exact lookups of absent names on a store whose
   names all have the query's length, the forwarder's common miss in a
   tree of equal-depth content names, with tracing disabled.  Longer
   names were cached before and are gone, one dropped by [clear] and
   one by LRU eviction, so the row also fails if the length census
   keeps counting a name the store no longer holds. *)
let cs_miss_workload () =
  let names = Lazy.force cs_names in
  let data = Lazy.force cs_data in
  let longer i =
    Ndn.Data.create ~producer:"bench" ~key:"k" ~payload:"x"
      (Ndn.Name.of_string (Printf.sprintf "/bench/ns0/content/%d/v1" i))
  in
  let cs = Ndn.Content_store.create ~capacity:512 () in
  Ndn.Content_store.insert cs ~now:0. (longer 0) ();
  Ndn.Content_store.clear cs;
  let evicted = longer 1 in
  Ndn.Content_store.insert cs ~now:0. evicted ();
  for i = 0 to 511 do
    Ndn.Content_store.insert cs ~now:0. data.(i) ()
  done;
  assert (not (Ndn.Content_store.mem cs evicted.Ndn.Data.name));
  let now = 1.0 in
  fun ops ->
    for i = 1 to ops do
      ignore (Ndn.Content_store.lookup cs ~now names.(512 + (i land 511)))
    done

(* FIB hit: every lookup matches one of 16 namespace routes two
   components shorter than the query, the forwarder's common case, with
   tracing disabled. *)
let fib_lookup_workload () =
  let names = Lazy.force cs_names in
  let fib = Ndn.Fib.create () in
  for k = 0 to 15 do
    Ndn.Fib.add_route fib
      ~prefix:(Ndn.Name.of_string (Printf.sprintf "/bench/ns%d" k))
      ~face:(k + 1)
  done;
  ignore (Ndn.Fib.next_hops fib names.(0));
  fun ops ->
    for i = 1 to ops do
      ignore (Ndn.Fib.next_hops fib names.(i land 1023))
    done

(* Insert/evict mix: inserting from a 1024-name universe into a
   256-entry store, so ~every insert evicts — the policy's bookkeeping
   (intrusive list, lazy LFU heap, RR slot array) dominates. *)
let cs_insert_workload policy () =
  let data = Lazy.force cs_data in
  let rng = Sim.Rng.create 42 in
  let cs = Ndn.Content_store.create ~policy ~rng ~capacity:256 () in
  let tick = ref 0 in
  fun ops ->
    for i = 1 to ops do
      incr tick;
      Ndn.Content_store.insert cs
        ~now:(float_of_int !tick)
        data.((i * 31) land 1023)
        ()
    done

(* ------------------------------------------------------------------ *)
(* PIT expiry sweep: steady state over a 4096-entry sliding window —
   one insert + one [expire] call per op, lifetime 4096 ticks, so each
   expire drops exactly the one entry crossing the horizon.  Guards
   the FIFO expiry index: cost must stay O(expired), not a scan of the
   live table (a rescan would pay ~window entries per op here).  The
   8192-name universe keeps reinserted names distinct from their
   long-expired predecessors. *)

let pit_names =
  lazy
    (Array.init 8192 (fun i ->
         Ndn.Name.of_string (Printf.sprintf "/bench/pit%d/entry/%d" (i mod 16) i)))

let pit_expire_workload () =
  let names = Lazy.force pit_names in
  let pit = Ndn.Pit.create ~lifetime_ms:4096. () in
  let tick = ref 0 in
  for _ = 1 to 4096 do
    incr tick;
    ignore
      (Ndn.Pit.insert pit ~now:(float_of_int !tick) ~face:1
         ~nonce:(Int64.of_int !tick)
         names.(!tick land 8191))
  done;
  fun ops ->
    for _ = 1 to ops do
      incr tick;
      ignore
        (Ndn.Pit.insert pit ~now:(float_of_int !tick) ~face:1
           ~nonce:(Int64.of_int !tick)
           names.(!tick land 8191));
      ignore (Ndn.Pit.expire pit ~now:(float_of_int !tick))
    done

(* PIT round trip: insert a new name, then satisfy it, with one pending
   entry at a time — the forwarder's path for an interest that is
   forwarded and answered.  The nonce is a constant so the workload
   itself boxes nothing.  Each satisfied entry leaves its pair in the
   expiry ring; every 4096 ops a [sweep_useful] drops them, as the
   forwarder's sweep does, so the ring stays bounded and the row
   measures a steady round trip rather than the ring's doublings. *)
let pit_insert_satisfy_workload () =
  let names = Lazy.force pit_names in
  let pit = Ndn.Pit.create ~lifetime_ms:4096. () in
  let now = 1.0 in
  fun ops ->
    for i = 1 to ops do
      let name = names.(i land 8191) in
      ignore (Ndn.Pit.insert pit ~now ~face:1 ~nonce:1L name);
      ignore (Ndn.Pit.satisfy_timed pit name);
      if i land 4095 = 0 then ignore (Ndn.Pit.sweep_useful pit ~now ~at:now)
    done

(* ------------------------------------------------------------------ *)
(* End-to-end: one Figure 3 LAN campaign — every subsystem the rest of
   this file measures in isolation, composed. *)

let fig3_lan_workload ~quick () =
  let contents = if quick then 8 else 25 in
  let runs = if quick then 2 else 4 in
  fun ops ->
    for i = 1 to ops do
      ignore
        (Attack.Timing_experiment.run
           ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ())
           ~contents ~runs ~seed:(10 + i) ~jobs:1 ())
    done

(* ------------------------------------------------------------------ *)
(* Trace throughput: the binary wire format's reason to exist.  One
   traced fig3 LAN campaign supplies a realistic event mix; the
   workloads then re-emit those events through each exporter and
   re-analyze the binary stream, so the JSON carries events/s and
   bytes/event for both formats from the same trace on the same
   machine.  The binary emit path has its own alloc ceiling: the
   steady-state cost is re-interning the campaign's ~100 distinct
   strings once per pass, a fraction of a word per event — anything
   near one word/event means a closure or box crept into the hot
   path. *)

let binary_emit_alloc_ceiling = 0.5

let trace_campaign ~quick () =
  let contents = if quick then 8 else 25 in
  let runs = if quick then 2 else 4 in
  (Attack.Timing_experiment.run
     ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ())
     ~contents ~runs ~seed:11 ~jobs:1 ~trace:true ())
    .Attack.Timing_experiment.trace

(* One op = one event re-rendered into a reused buffer (JSONL) or a
   reset encoder (binary) — the per-event cost a [--trace] run pays at
   export time, minus the write(2)s. *)
let jsonl_emit_workload events =
  let buf = Buffer.create 65536 in
  let n = Array.length events in
  fun ops ->
    for _ = 1 to ops / n do
      Buffer.clear buf;
      for i = 0 to n - 1 do
        Buffer.add_string buf (Sim.Trace.event_to_jsonl (Array.unsafe_get events i));
        Buffer.add_char buf '\n'
      done
    done

let binary_emit_workload events =
  let enc = Sim.Trace.encoder_create () in
  let n = Array.length events in
  fun ops ->
    for _ = 1 to ops / n do
      Sim.Trace.encoder_reset enc;
      Sim.Trace.encoder_add_header enc;
      for i = 0 to n - 1 do
        Sim.Trace.encode_event enc (Array.unsafe_get events i)
      done
    done

(* One op = one event decoded and folded through the full [Analyze]
   accumulator — the streaming-analyzer consumption rate. *)
let analyze_workload ~n bin =
  fun ops ->
    for _ = 1 to ops / n do
      match Sim.Analyze.of_source (Sim.Trace_reader.of_string bin) with
      | Ok _ -> ()
      | Error e -> failwith (Sim.Trace_reader.error_to_string e)
    done

(* ------------------------------------------------------------------ *)
(* JSON assembly. *)

let read_git_rev () =
  let read_line path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      close_in ic;
      line
  in
  match read_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let ref_path = ".git/" ^ String.sub head 5 (String.length head - 5) in
      Option.value (read_line ref_path) ~default:"unknown"
    else head

let run ~quick () =
  Format.printf "@.================ Core perf-regression suite ================@.";
  let ops_scale = if quick then 1 else 8 in
  let runs = if quick then 3 else 5 in
  let m ?(ops = 100_000 * ops_scale) ~label f =
    let r = Sim.Bench.measure ~clock_ns ~runs ~label ~ops f in
    Format.printf "%a@." Sim.Bench.pp_result r;
    r
  in
  (* The before/after churn pair is measured interleaved — one run of
     each, alternating, minimum per side — so slow drift in machine
     speed (frequency scaling, co-tenancy) cannot bias the ratio the
     way two back-to-back blocks would. *)
  let measure_pair ~label_a fa ~label_b fb ~ops ~rounds =
    let one label f =
      Sim.Bench.measure ~clock_ns ~warmup:0 ~runs:1 ~label ~ops f
    in
    ignore (fa ops);
    ignore (fb ops);
    let best = ref None in
    for _ = 1 to rounds do
      let ra = one label_a fa in
      let rb = one label_b fb in
      best :=
        Some
          (match !best with
          | None -> (ra, rb)
          | Some (ba, bb) ->
            let keep b r =
              {
                r with
                Sim.Bench.ns_per_op = Float.min b.Sim.Bench.ns_per_op r.Sim.Bench.ns_per_op;
                allocs_per_op = Float.min b.Sim.Bench.allocs_per_op r.Sim.Bench.allocs_per_op;
                runs = rounds;
              }
            in
            (keep ba ra, keep bb rb))
    done;
    Option.get !best
  in
  let churn_old, churn =
    let old_r, new_r =
      measure_pair ~label_a:"engine-churn/boxed-baseline" churn_baseline
        ~label_b:"engine-churn" churn_new ~ops:(100_000 * ops_scale)
        ~rounds:(2 * runs)
    in
    Format.printf "%a@." Sim.Bench.pp_result old_r;
    Format.printf "%a@." Sim.Bench.pp_result new_r;
    (old_r, new_r)
  in
  let cs_hit = m ~label:"cs-hit/exact-untraced" (cs_hit_workload ()) in
  let cs_miss = m ~label:"cs-miss/extension-untraced" (cs_miss_workload ()) in
  let fib_lookup = m ~label:"fib-lookup/hit-untraced" (fib_lookup_workload ()) in
  let pit_expire = m ~label:"pit-expire/steady-window" (pit_expire_workload ()) in
  let pit_round_trip =
    m ~label:"pit-insert-satisfy/untraced" (pit_insert_satisfy_workload ())
  in
  let cs_inserts =
    List.map
      (fun policy ->
        m
          ~label:("cs-insert-evict/" ^ Ndn.Eviction.to_string policy)
          (cs_insert_workload policy ()))
      [
        Ndn.Eviction.Lru;
        Ndn.Eviction.Fifo;
        Ndn.Eviction.Lfu;
        Ndn.Eviction.Random_replacement;
      ]
  in
  let fig3 =
    let r =
      Sim.Bench.measure ~clock_ns ~warmup:1 ~runs:(if quick then 2 else 3)
        ~label:"fig3-lan-trial" ~ops:1
        (fig3_lan_workload ~quick ())
    in
    Format.printf "%a@." Sim.Bench.pp_result r;
    r
  in
  let speedup = churn_old.Sim.Bench.ns_per_op /. churn.Sim.Bench.ns_per_op in
  Format.printf "engine churn speedup vs boxed baseline: %.2fx@." speedup;
  (* Trace throughput: emit both formats interleaved (same drift
     immunity as the churn pair), then the streaming analyzer over the
     binary stream. *)
  let trace_events = Sim.Trace.events (trace_campaign ~quick ()) in
  let trace_n = Array.length trace_events in
  let trace_jsonl_bytes, trace_binary_bytes =
    let tr = Sim.Trace.create () in
    Array.iter (Sim.Trace.emit tr) trace_events;
    ( String.length (Sim.Trace.render Sim.Trace.Jsonl tr),
      String.length (Sim.Trace.render Sim.Trace.Binary tr) )
  in
  let trace_ops =
    let passes = max 1 (((20_000 * ops_scale) + trace_n - 1) / trace_n) in
    passes * trace_n
  in
  let trace_jsonl_emit, trace_binary_emit =
    let ja, jb =
      measure_pair ~label_a:"trace-emit/jsonl"
        (jsonl_emit_workload trace_events)
        ~label_b:"trace-emit/binary"
        (binary_emit_workload trace_events)
        ~ops:trace_ops ~rounds:(2 * runs)
    in
    Format.printf "%a@." Sim.Bench.pp_result ja;
    Format.printf "%a@." Sim.Bench.pp_result jb;
    (ja, jb)
  in
  let trace_analyze =
    let tr = Sim.Trace.create () in
    Array.iter (Sim.Trace.emit tr) trace_events;
    let bin = Sim.Trace.render Sim.Trace.Binary tr in
    m ~ops:trace_ops ~label:"trace-analyze/binary-stream"
      (analyze_workload ~n:trace_n bin)
  in
  let emit_speedup =
    trace_jsonl_emit.Sim.Bench.ns_per_op /. trace_binary_emit.Sim.Bench.ns_per_op
  in
  let bytes_ratio =
    float_of_int trace_binary_bytes /. float_of_int trace_jsonl_bytes
  in
  Format.printf
    "trace emit: binary %.2fx faster than jsonl, %.3fx the bytes (%d events)@."
    emit_speedup bytes_ratio trace_n;
  let results =
    (churn :: cs_hit :: cs_miss :: fib_lookup :: pit_expire :: pit_round_trip :: cs_inserts)
    @ [ fig3; trace_jsonl_emit; trace_binary_emit; trace_analyze ]
  in
  let json =
    String.concat ""
      [
        "{\n";
        Printf.sprintf "  \"suite\": \"bench-core\",\n";
        Printf.sprintf "  \"git_rev\": \"%s\",\n"
          (Sim.Bench.json_escape (read_git_rev ()));
        Printf.sprintf "  \"config\": {\"quick\": %b, \"ops_scale\": %d},\n" quick
          ops_scale;
        Printf.sprintf "  \"cs_hit_alloc_ceiling\": %.6f,\n" cs_hit_alloc_ceiling;
        Printf.sprintf "  \"cs_miss_alloc_ceiling\": %.6f,\n" cs_miss_alloc_ceiling;
        Printf.sprintf "  \"fib_lookup_alloc_ceiling\": %.6f,\n"
          fib_lookup_alloc_ceiling;
        Printf.sprintf "  \"cs_insert_lru_alloc_ceiling\": %.6f,\n"
          cs_insert_lru_alloc_ceiling;
        Printf.sprintf "  \"pit_insert_satisfy_alloc_ceiling\": %.6f,\n"
          pit_insert_satisfy_alloc_ceiling;
        Printf.sprintf
          "  \"baseline\": {\"op\": \"engine-churn\", \"before_ns_per_op\": \
           %.3f, \"after_ns_per_op\": %.3f, \"speedup\": %.3f},\n"
          churn_old.Sim.Bench.ns_per_op churn.Sim.Bench.ns_per_op speedup;
        Printf.sprintf
          "  \"trace\": {\"events\": %d, \"jsonl_bytes_per_event\": %.3f, \
           \"binary_bytes_per_event\": %.3f, \"bytes_ratio\": %.4f, \
           \"jsonl_emit_ns_per_event\": %.3f, \"binary_emit_ns_per_event\": \
           %.3f, \"emit_speedup\": %.3f, \"binary_emit_allocs_per_op\": %.6f, \
           \"binary_emit_alloc_ceiling\": %.6f, \"analyze_ns_per_event\": \
           %.3f, \"analyze_events_per_s\": %.0f},\n"
          trace_n
          (float_of_int trace_jsonl_bytes /. float_of_int trace_n)
          (float_of_int trace_binary_bytes /. float_of_int trace_n)
          bytes_ratio trace_jsonl_emit.Sim.Bench.ns_per_op
          trace_binary_emit.Sim.Bench.ns_per_op emit_speedup
          trace_binary_emit.Sim.Bench.allocs_per_op binary_emit_alloc_ceiling
          trace_analyze.Sim.Bench.ns_per_op
          (1e9 /. trace_analyze.Sim.Bench.ns_per_op);
        "  \"results\": [\n";
        String.concat ",\n"
          (List.map (fun r -> "    " ^ Sim.Bench.result_to_json r) results);
        "\n  ]\n";
        "}\n";
      ]
  in
  let oc = open_out "BENCH_core.json" in
  output_string oc json;
  close_out oc;
  Format.printf "wrote BENCH_core.json (git %s)@." (read_git_rev ());
  if cs_hit.Sim.Bench.allocs_per_op > cs_hit_alloc_ceiling then begin
    Format.eprintf
      "FAIL: cs-hit allocates %.6f minor words/op (ceiling %.6f) — the \
       zero-allocation hit-path contract is broken@."
      cs_hit.Sim.Bench.allocs_per_op cs_hit_alloc_ceiling;
    exit 1
  end;
  if cs_miss.Sim.Bench.allocs_per_op > cs_miss_alloc_ceiling then begin
    Format.eprintf
      "FAIL: cs-miss allocates %.6f minor words/op (ceiling %.6f) — a \
       census-answered miss reaches the prefix index or builds a closure \
       again@."
      cs_miss.Sim.Bench.allocs_per_op cs_miss_alloc_ceiling;
    exit 1
  end;
  if fib_lookup.Sim.Bench.allocs_per_op > fib_lookup_alloc_ceiling then begin
    Format.eprintf
      "FAIL: fib-lookup allocates %.6f minor words/op (ceiling %.6f) — the \
       value-only FIB query builds a name or a box again@."
      fib_lookup.Sim.Bench.allocs_per_op fib_lookup_alloc_ceiling;
    exit 1
  end;
  let cs_insert_lru = List.hd cs_inserts in
  if cs_insert_lru.Sim.Bench.allocs_per_op > cs_insert_lru_alloc_ceiling then begin
    Format.eprintf
      "FAIL: cs-insert-evict/lru allocates %.6f minor words/op (ceiling %.6f) \
       — an insert allocates more than its entry again@."
      cs_insert_lru.Sim.Bench.allocs_per_op cs_insert_lru_alloc_ceiling;
    exit 1
  end;
  if pit_round_trip.Sim.Bench.allocs_per_op > pit_insert_satisfy_alloc_ceiling
  then begin
    Format.eprintf
      "FAIL: pit-insert-satisfy allocates %.6f minor words/op (ceiling %.6f) \
       — the PIT boxes per-entry state again@."
      pit_round_trip.Sim.Bench.allocs_per_op pit_insert_satisfy_alloc_ceiling;
    exit 1
  end;
  if trace_binary_emit.Sim.Bench.allocs_per_op > binary_emit_alloc_ceiling
  then begin
    Format.eprintf
      "FAIL: binary trace emit allocates %.6f minor words/op (ceiling %.6f) — \
       a closure or box crept into the encoder hot path@."
      trace_binary_emit.Sim.Bench.allocs_per_op binary_emit_alloc_ceiling;
    exit 1
  end;
  if speedup < 2.0 then
    Format.eprintf
      "warning: engine churn speedup %.2fx below the 2x target (noise, or a \
       regression — compare BENCH_core.json against the checked-in one)@."
      speedup;
  if emit_speedup < 3.0 then
    Format.eprintf
      "warning: binary emit only %.2fx faster than jsonl (3x target — noise, \
       or the emit path regressed)@."
      emit_speedup;
  if bytes_ratio > 0.25 then
    Format.eprintf
      "warning: binary trace is %.3fx the jsonl bytes (0.25x target — did \
       interning or delta coding regress?)@."
      bytes_ratio;
  (* An O(live-table) expiry rescan would pay ~4096 entries per op here
     — microseconds, not the sub-µs an indexed pop costs.  Warn loudly
     (threshold is generous: 10x headroom on slow CI hosts). *)
  if pit_expire.Sim.Bench.ns_per_op > 10_000. then
    Format.eprintf
      "warning: pit-expire at %.0f ns/op looks like a live-table rescan — \
       the FIFO expiry index should make expire O(expired)@."
      pit_expire.Sim.Bench.ns_per_op
