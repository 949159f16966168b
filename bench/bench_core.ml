(* bench core: the allocation ceilings and layer micro-costs.

   Measures the hot paths perfbench's end-to-end runs cannot isolate —
   engine event churn and a replayed tree-warm schedule, the SHA-256
   kernel, CS exact hits, misses and insert/evict mixes per eviction
   policy, FIB and PIT round trips, the fault-hook cost pair and trace
   emit — and merges its "core" section into the bench ledger
   (BENCH_core.json, see ledger.ml).

   Hard checks run here rather than in a test: each row with an
   allocation ceiling below, and the idle-fault-schedule row against the
   no-schedule row, must stay within its bound in minor words per op;
   exceeding any makes the process exit non-zero, which fails the CI
   bench-smoke job. *)

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
   the object's [Some] cell (2) and the boxed [now] the workload passes
   (2).  The insertion time and hit count go to a float and an int
   array; slots, recency links and the name index are preallocated int
   and name arrays, so nothing else allocates.  A per-entry record
   coming back would add its size here. *)
let cs_insert_lru_alloc_ceiling = 4.01

(* Minor words per PIT insert of a new name followed by its satisfy,
   the forwarder's common round trip: the arrival list cell and its
   (face, nonce) pair at insert (6 words), and the one-face list the
   satisfy returns (3).  A single match builds no matched-slot list,
   and the creation time goes to an unboxed slot, not a boxed result.
   Slots, the expiry ring and the name index allocate nothing. *)
let pit_insert_satisfy_alloc_ceiling = 9.01

(* ------------------------------------------------------------------ *)
(* Engine churn: steady-state schedule/cancel/fire traffic over a
   ~[depth]-deep queue — the inner loop of every simulated experiment.
   One op = one schedule + one step; every 4th scheduled event is
   cancelled at once, which takes it out of the queue, and replaced by
   another, so the queue stays at [churn_depth] live events.  Depth
   4096 matches the pending-event population of the trace-driven fig5
   campaigns (one in-flight timer per client plus per-hop forwarding
   events). *)

let churn_depth = 4096

(* Minor words per churn op: 1.25 schedules at 2 words each (the boxed
   delay the workload passes), plus the set-up's 4096 schedules and
   array doublings spread over the ops, ~0.35 at [--quick] (2.854 in
   all).  [schedule] hands the absolute time to the heap through a
   float array, and [cancel] and [step] allocate nothing: the heap
   removes by slot and sifts by position, and the hold reads its time
   from a float array.  One boxed time per schedule would add 2.5, two
   boxed words per cancel 0.5. *)
let engine_churn_alloc_ceiling = 2.90

(* Pseudo-random-looking delays, precomputed: [(i * 7919) land 1023] has
   period 1024 in [i], so a 1024-entry table covers every op and the
   per-op workload cost outside the engine is one unboxed array load. *)
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
    if i land 3 = 0 then begin
      Sim.Engine.cancel h;
      ignore (Sim.Engine.schedule e ~delay:(churn_delay (i + 1)) nop)
    end;
    ignore (Sim.Engine.step e)
  done

(* ------------------------------------------------------------------ *)
(* Engine replay: a real run's schedule shape, re-driven from inside
   actions.  engine-churn schedules from outside any action, so every
   schedule there is a plain heap add and the row cannot see how an
   action's schedules meet the fired event's slot.  The fixture holds,
   for a window of fires of one traced perfbench tree-warm op, what
   each fired event's action scheduled: how many events, at what
   delay, at what key offset from the firing event's key, and whether
   the event later fired or was cancelled.  The window's events that
   fire number as many as its fires, so replaying it cyclically keeps
   the queue near the recorded depth.  The replay fills the queue to
   that depth, then each fired event schedules the next record's
   events, cancelling at once those the run cancelled (they leave the
   queue at once, as a disarmed timeout does, and hold the engine at
   their time).  One op = one [Engine.step]. *)

type schedule_shape = {
  depth : int;
  first : int array; (* record r's events are first.(r) .. first.(r+1)-1 *)
  delays : float array;
  key_offsets : int array;
  cancelled : bool array;
}

let tree_warm_shape =
  lazy
    (let depth = ref 0 and records = ref [] in
     String.split_on_char '\n' Tree_warm_schedule.text
     |> List.iter (fun line ->
            match String.split_on_char ' ' line with
            | [ "" ] -> ()
            | w :: _ when String.starts_with ~prefix:"#" w -> ()
            | [ "depth"; d ] -> depth := int_of_string d
            | _ :: events ->
              let rec parse = function
                | d :: k :: flag :: rest ->
                  (float_of_string d, int_of_string k, flag = "c") :: parse rest
                | [] -> []
                | _ -> failwith ("bench core: bad schedule fixture line: " ^ line)
              in
              records := parse events :: !records
            | [] -> ());
     let records = List.rev !records in
     let events = Array.of_list (List.concat records) in
     let first = Array.make (List.length records + 1) 0 in
     List.iteri (fun r evs -> first.(r + 1) <- first.(r) + List.length evs) records;
     {
       depth = !depth;
       first;
       delays = Array.map (fun (d, _, _) -> d) events;
       key_offsets = Array.map (fun (_, k, _) -> k) events;
       cancelled = Array.map (fun (_, _, c) -> c) events;
     })

let engine_replay_workload () =
  let s = Lazy.force tree_warm_shape in
  let nrec = Array.length s.first - 1 in
  let e = Sim.Engine.create () in
  let next = ref 0 in
  let rec fire () =
    let r = !next in
    next := if r + 1 = nrec then 0 else r + 1;
    let key = Sim.Engine.cur_key e in
    for j = Array.unsafe_get s.first r to Array.unsafe_get s.first (r + 1) - 1 do
      let h =
        Sim.Engine.schedule_key e ~delay:(Array.unsafe_get s.delays j)
          ~key:(key + Array.unsafe_get s.key_offsets j)
          fire
      in
      if Array.unsafe_get s.cancelled j then Sim.Engine.cancel h
    done
  in
  let nev = Array.length s.delays in
  for i = 0 to s.depth - 1 do
    ignore (Sim.Engine.schedule_key e ~delay:s.delays.(i mod nev) ~key:i fire)
  done;
  fun ops ->
    for _ = 1 to ops do
      ignore (Sim.Engine.step e)
    done

(* ------------------------------------------------------------------ *)
(* SHA-256 compression: one op resumes a context from a saved
   block-aligned state and feeds 1 KiB, 16 compressions and no padding,
   the bulk of the ~20 blocks producer signing hashes per Fig 3 LAN
   request.  The rounds run on unboxed int64 locals, so the true value
   is 0.0 minor words per op; a boxed word in the kernel would cost
   words per block. *)
let sha256_feed_alloc_ceiling = 0.01

let sha256_feed_workload () =
  let module H = Ndn_crypto.Sha256 in
  let msg = Bytes.init 1024 (fun i -> Char.chr ((i * 131) land 0xff)) in
  let saved = H.init () in
  H.feed saved (String.make H.block_size 'k');
  let ctx = H.init () in
  fun ops ->
    for _ = 1 to ops do
      H.resume ctx ~from:saved;
      H.feed_bytes ctx msg ~off:0 ~len:1024
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
(* Fault-hook cost: the link delivery path consults per-direction fault
   state (up, loss override, latency factor) on every packet.  One op =
   one fetch over a two-node network, run with no fault schedule and
   with an idle one installed; the hooks are a branch and a multiply, so
   the idle row may allocate no more than the no-schedule row plus
   [fault_hook_alloc_slack]. *)

let fault_hook_alloc_slack = 0.01

let fault_fetch_workload ~faulted =
  let net = Ndn.Network.create ~seed:11 () in
  let c = Ndn.Network.add_node net ~caching:false "C" in
  let p = Ndn.Network.add_node net "P" in
  let prefix = Ndn.Name.of_string "/m" in
  let cf, _ = Ndn.Network.connect net ~latency:(Sim.Latency.Constant 1.) c p in
  Ndn.Network.route net c ~prefix ~via:cf;
  Ndn.Node.add_producer p ~prefix (fun i ->
      Some (Ndn.Data.create ~producer:"P" ~key:"k" ~payload:"x" i.Ndn.Interest.name));
  if faulted then begin
    (* A degrade window that opens and closes during the first fetch:
       afterwards every op runs with the fault machinery armed but the
       link at its base parameters. *)
    let degrade =
      Sim.Fault.Link_degrade
        { a = "C"; b = "P"; dir = Sim.Fault.Both; loss = 0.; latency_factor = 1.; until = 0.5 }
    in
    match Ndn.Network.install_faults net [ { Sim.Fault.at = 0.; kind = degrade } ] with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;
  let name = Ndn.Name.of_string "/m/bench" in
  fun ops ->
    for _ = 1 to ops do
      ignore (Ndn.Network.fetch_rtt net ~from:c name)
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
        Sim.Trace.add_jsonl buf (Array.unsafe_get events i);
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
      | Error e -> failwith (Sim.Scan.error_to_string e)
    done

(* ------------------------------------------------------------------ *)

let run ~quick () =
  Format.printf "@.================ Core perf-regression suite ================@.";
  let ops_scale = if quick then 1 else 8 in
  let runs = if quick then 3 else 5 in
  let m ?(ops = 100_000 * ops_scale) ~label f =
    let r = Sim.Bench.measure ~clock_ns ~runs ~label ~ops f in
    Format.printf "%a@." Sim.Bench.pp_result r;
    r
  in
  (* A pair compared against each other is measured interleaved — one
     run of each, alternating, minimum per side — so slow drift in
     machine speed (frequency scaling, co-tenancy) cannot bias the ratio
     the way two back-to-back blocks would. *)
  let measure_pair ~label_a fa ~label_b fb ~ops =
    let one label f = Sim.Bench.measure ~clock_ns ~warmup:0 ~runs:1 ~label ~ops f in
    let keep b r =
      {
        r with
        Sim.Bench.ns_per_op = Float.min b.Sim.Bench.ns_per_op r.Sim.Bench.ns_per_op;
        allocs_per_op = Float.min b.Sim.Bench.allocs_per_op r.Sim.Bench.allocs_per_op;
        runs = 2 * runs;
      }
    in
    fa ops;
    fb ops;
    let best = ref (one label_a fa, one label_b fb) in
    for _ = 2 to 2 * runs do
      let ba, bb = !best in
      let ra = one label_a fa in
      best := (keep ba ra, keep bb (one label_b fb))
    done;
    let ra, rb = !best in
    Format.printf "%a@.%a@." Sim.Bench.pp_result ra Sim.Bench.pp_result rb;
    !best
  in
  let churn = m ~label:"engine-churn" churn_new in
  let replay = m ~label:"engine-replay/tree-warm" (engine_replay_workload ()) in
  let sha_feed =
    m ~ops:(10_000 * ops_scale) ~label:"sha256-feed/1KiB" (sha256_feed_workload ())
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
  let fault_none, fault_idle =
    measure_pair ~label_a:"fault-fetch/no-schedule"
      (fault_fetch_workload ~faulted:false)
      ~label_b:"fault-fetch/idle-schedule"
      (fault_fetch_workload ~faulted:true)
      ~ops:(20_000 * ops_scale)
  in
  (* Trace throughput: emit both formats interleaved, then the streaming
     analyzer over the binary stream. *)
  let trace_events = Sim.Trace.events (trace_campaign ~quick ()) in
  let trace_n = Array.length trace_events in
  let trace_bin, trace_jsonl_bytes =
    let tr = Sim.Trace.create () in
    Array.iter (Sim.Trace.emit tr) trace_events;
    (Sim.Trace.render Sim.Trace.Binary tr, String.length (Sim.Trace.render Sim.Trace.Jsonl tr))
  in
  let trace_binary_bytes = String.length trace_bin in
  let trace_ops =
    let passes = max 1 (((20_000 * ops_scale) + trace_n - 1) / trace_n) in
    passes * trace_n
  in
  let trace_jsonl_emit, trace_binary_emit =
    measure_pair ~label_a:"trace-emit/jsonl"
      (jsonl_emit_workload trace_events)
      ~label_b:"trace-emit/binary"
      (binary_emit_workload trace_events)
      ~ops:trace_ops
  in
  let trace_analyze =
    m ~ops:trace_ops ~label:"trace-analyze/binary-stream"
      (analyze_workload ~n:trace_n trace_bin)
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
    churn :: replay :: sha_feed :: cs_hit :: cs_miss :: fib_lookup :: pit_expire
    :: pit_round_trip :: cs_inserts
    @ [ fault_none; fault_idle; trace_jsonl_emit; trace_binary_emit; trace_analyze ]
  in
  let f6 = Printf.sprintf "%.6f" in
  Ledger.write "core"
    [
      ("config", Printf.sprintf "{\"quick\": %b, \"ops_scale\": %d}" quick ops_scale);
      ("engine_churn_alloc_ceiling", f6 engine_churn_alloc_ceiling);
      ("cs_hit_alloc_ceiling", f6 cs_hit_alloc_ceiling);
      ("cs_miss_alloc_ceiling", f6 cs_miss_alloc_ceiling);
      ("fib_lookup_alloc_ceiling", f6 fib_lookup_alloc_ceiling);
      ("cs_insert_lru_alloc_ceiling", f6 cs_insert_lru_alloc_ceiling);
      ("pit_insert_satisfy_alloc_ceiling", f6 pit_insert_satisfy_alloc_ceiling);
      ("fault_hook_alloc_slack", f6 fault_hook_alloc_slack);
      ("binary_emit_alloc_ceiling", f6 binary_emit_alloc_ceiling);
      ("sha256_feed_alloc_ceiling", f6 sha256_feed_alloc_ceiling);
      (* Emit and analyze costs are the trace-* rows of "results". *)
      ( "trace",
        Printf.sprintf
          "{\"events\": %d, \"jsonl_bytes_per_event\": %.3f, \
           \"binary_bytes_per_event\": %.3f, \"bytes_ratio\": %.4f, \
           \"emit_speedup\": %.3f}"
          trace_n
          (float_of_int trace_jsonl_bytes /. float_of_int trace_n)
          (float_of_int trace_binary_bytes /. float_of_int trace_n)
          bytes_ratio emit_speedup );
      ( "results",
        "[\n"
        ^ String.concat ",\n"
            (List.map (fun r -> "      " ^ Sim.Bench.result_to_json r) results)
        ^ "\n    ]" );
    ];
  let ceilings =
    [
      ( churn,
        engine_churn_alloc_ceiling,
        "schedule boxes its time, or cancel or step allocates, again" );
      (cs_hit, cs_hit_alloc_ceiling, "the zero-allocation hit-path contract is broken");
      ( cs_miss,
        cs_miss_alloc_ceiling,
        "a census-answered miss reaches the prefix index or builds a closure again" );
      (fib_lookup, fib_lookup_alloc_ceiling, "the value-only FIB query builds a name or a box again");
      (List.hd cs_inserts, cs_insert_lru_alloc_ceiling, "an insert allocates more than its entry again");
      (pit_round_trip, pit_insert_satisfy_alloc_ceiling, "the PIT boxes per-entry state again");
      ( trace_binary_emit,
        binary_emit_alloc_ceiling,
        "a closure or box crept into the encoder hot path" );
      ( sha_feed,
        sha256_feed_alloc_ceiling,
        "a boxed word crept into the SHA-256 rounds" );
      ( fault_idle,
        fault_none.Sim.Bench.allocs_per_op +. fault_hook_alloc_slack,
        "an idle fault schedule allocates on the packet delivery path" );
    ]
  in
  let breaches =
    List.filter (fun (r, ceiling, _) -> r.Sim.Bench.allocs_per_op > ceiling) ceilings
  in
  List.iter
    (fun (r, ceiling, why) ->
      Format.eprintf "FAIL: %s allocates %.6f minor words/op (ceiling %.6f) — %s@."
        r.Sim.Bench.label r.Sim.Bench.allocs_per_op ceiling why)
    breaches;
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
      pit_expire.Sim.Bench.ns_per_op;
  if breaches <> [] then exit 1
