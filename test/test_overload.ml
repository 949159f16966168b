(* The overload-robustness plane: consumer backoff, finite PIT
   admission, bounded link queues, NACKs, the flooding adversary — and
   the invariant that none of it breaks determinism.

   - backoff policy: qcheck monotonicity/cap with jitter off, jitter
     determinism and bounds, parameter validation;
   - Ndn.Pit admission: Drop_new / Evict_oldest / Per_face_fair
     semantics and the FIFO expiry index (stale-slot skip, canonical
     order);
   - graceful degradation end-to-end: retry-budget exhaustion emits
     consumer.give_up, a No_route NACK recovers faster than the RTO
     path, a saturated link queue answers with Congested NACKs, and an
     interest flood against a finite PIT bounces off as Pit_full;
   - identity: one flooded, faulted, queue-limited network renders
     byte-identical traces for --shards 1/2/4 (watchdog armed or not)
     and for --jobs 1 vs 4 trial fan-out. *)

let render = Sim.Trace.render Sim.Trace.Jsonl

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let name = Ndn.Name.of_string

(* --- backoff policy --- *)

let qcheck_backoff_monotone_capped =
  let gen =
    QCheck.Gen.(
      let* base = float_range 0.5 50. in
      let* factor = float_range 1. 4. in
      let+ cap = float_range 60. 500. in
      (base, factor, cap))
  in
  let print (b, f, c) = Printf.sprintf "(base=%g, factor=%g, cap=%g)" b f c in
  QCheck.Test.make ~count:50
    ~name:"jitter-free backoff is monotone and capped"
    (QCheck.make ~print gen)
    (fun (base_ms, factor, max_delay_ms) ->
      let b =
        Ndn.Consumer.backoff ~base_ms ~factor ~jitter:0. ~max_delay_ms
          (Sim.Rng.create 1)
      in
      let delays =
        List.init 12 (fun i -> Ndn.Consumer.backoff_delay b ~attempt:(i + 1))
      in
      (match delays with
      | first :: _ when Float.abs (first -. base_ms) > 1e-9 ->
        QCheck.Test.fail_reportf "first delay %g <> base %g" first base_ms
      | _ -> ());
      List.iteri
        (fun i d ->
          if d > max_delay_ms +. 1e-9 then
            QCheck.Test.fail_reportf "delay %d = %g over cap %g" i d
              max_delay_ms;
          if i > 0 && d +. 1e-9 < List.nth delays (i - 1) then
            QCheck.Test.fail_reportf "delay %d = %g shrank" i d)
        delays;
      true)

let qcheck_backoff_jitter =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 1 10_000 in
      let+ jitter = float_range 0.01 0.9 in
      (seed, jitter))
  in
  let print (s, j) = Printf.sprintf "(seed=%d, jitter=%g)" s j in
  QCheck.Test.make ~count:50
    ~name:"jittered backoff is seed-deterministic and bounded"
    (QCheck.make ~print gen)
    (fun (seed, jitter) ->
      let delays s =
        let b =
          Ndn.Consumer.backoff ~base_ms:10. ~factor:2. ~jitter
            ~max_delay_ms:1000. (Sim.Rng.create s)
        in
        List.init 10 (fun i -> Ndn.Consumer.backoff_delay b ~attempt:(i + 1))
      in
      if delays seed <> delays seed then
        QCheck.Test.fail_report "same seed, different delays";
      List.iteri
        (fun i d ->
          let ideal = Float.min 1000. (10. *. (2. ** float_of_int i)) in
          let lo = ideal *. (1. -. jitter) -. 1e-9
          and hi = ideal *. (1. +. jitter) +. 1e-9 in
          if d < lo || d > hi then
            QCheck.Test.fail_reportf "attempt %d: %g outside [%g, %g]" (i + 1)
              d lo hi)
        (delays seed);
      true)

let test_backoff_validation () =
  let rng () = Sim.Rng.create 1 in
  let expect_invalid label f =
    match f () with
    | (_ : Ndn.Consumer.backoff) ->
      Alcotest.failf "%s: Invalid_argument expected" label
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "base <= 0" (fun () ->
      Ndn.Consumer.backoff ~base_ms:0. (rng ()));
  expect_invalid "factor < 1" (fun () ->
      Ndn.Consumer.backoff ~factor:0.5 (rng ()));
  expect_invalid "jitter >= 1" (fun () ->
      Ndn.Consumer.backoff ~jitter:1. (rng ()));
  expect_invalid "cap below base" (fun () ->
      Ndn.Consumer.backoff ~base_ms:100. ~max_delay_ms:50. (rng ()));
  ignore (Ndn.Consumer.backoff (rng ()))

(* --- Pit admission policies and the expiry index --- *)

let ins pit ~now ~face n =
  Ndn.Pit.insert pit ~now ~face ~nonce:(Int64.of_int (Hashtbl.hash (now, face, n)))
    (name n)

let result =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
        | Ndn.Pit.Forward -> "Forward"
        | Ndn.Pit.Collapsed -> "Collapsed"
        | Ndn.Pit.Duplicate -> "Duplicate"
        | Ndn.Pit.Rejected -> "Rejected"))
    ( = )

let test_pit_drop_new () =
  let pit = Ndn.Pit.create ~capacity:2 ~admission:Ndn.Pit.Drop_new () in
  Alcotest.check result "first admitted" Ndn.Pit.Forward
    (ins pit ~now:0. ~face:1 "/a");
  Alcotest.check result "second admitted" Ndn.Pit.Forward
    (ins pit ~now:1. ~face:1 "/b");
  Alcotest.check result "newcomer over capacity rejected" Ndn.Pit.Rejected
    (ins pit ~now:2. ~face:1 "/c");
  (* Established entries are untouched by the full table: collapsing
     and retransmission still work. *)
  Alcotest.check result "collapse on a full table" Ndn.Pit.Collapsed
    (ins pit ~now:3. ~face:2 "/a");
  Alcotest.(check int) "rejection counted" 1 (Ndn.Pit.rejections pit);
  Alcotest.(check int) "size holds at capacity" 2 (Ndn.Pit.size pit)

let test_pit_evict_oldest () =
  let evicted = ref [] in
  let pit =
    Ndn.Pit.create ~capacity:2 ~admission:Ndn.Pit.Evict_oldest
      ~on_evict:(fun n -> evicted := Ndn.Name.to_string n :: !evicted)
      ()
  in
  ignore (ins pit ~now:0. ~face:1 "/a");
  ignore (ins pit ~now:1. ~face:1 "/b");
  Alcotest.check result "newcomer displaces the oldest" Ndn.Pit.Forward
    (ins pit ~now:2. ~face:1 "/c");
  Alcotest.(check (list string)) "the oldest was the victim" [ "/a" ]
    !evicted;
  Alcotest.(check bool) "victim gone" false (Ndn.Pit.pending pit (name "/a"));
  Alcotest.(check bool) "newcomer live" true (Ndn.Pit.pending pit (name "/c"));
  Alcotest.(check int) "eviction counted" 1 (Ndn.Pit.evictions pit)

let test_pit_per_face_fair () =
  let pit = Ndn.Pit.create ~capacity:4 ~admission:Ndn.Pit.Per_face_fair () in
  (* The flooder (face 1) claims three slots while alone... *)
  List.iter
    (fun n -> Alcotest.check result n Ndn.Pit.Forward (ins pit ~now:0. ~face:1 n))
    [ "/f/1"; "/f/2"; "/f/3" ];
  (* ...an honest face still gets in... *)
  Alcotest.check result "honest face admitted" Ndn.Pit.Forward
    (ins pit ~now:1. ~face:2 "/h/1");
  (* ...and once the honest entry drains, the flooder — over its
     post-split quota of capacity/2 — stays rejected while the honest
     face keeps its share. *)
  Alcotest.(check (list int)) "honest entry drains" [ 2 ]
    (Ndn.Pit.satisfy_timed pit (name "/h/1"));
  Alcotest.check result "flooder over quota rejected" Ndn.Pit.Rejected
    (ins pit ~now:2. ~face:1 "/f/4");
  Alcotest.check result "honest face keeps its share" Ndn.Pit.Forward
    (ins pit ~now:2. ~face:2 "/h/2");
  Alcotest.(check int) "one rejection" 1 (Ndn.Pit.rejections pit)

let test_pit_expiry_index () =
  let pit = Ndn.Pit.create ~lifetime_ms:100. () in
  ignore (ins pit ~now:0. ~face:1 "/b");
  ignore (ins pit ~now:0. ~face:1 "/a");
  ignore (ins pit ~now:10. ~face:1 "/mid");
  ignore (ins pit ~now:20. ~face:1 "/late");
  (* Early removal leaves a stale index slot behind: expire must skip
     it, not resurrect the entry. *)
  Alcotest.(check (list int)) "satisfied early" [ 1 ]
    (Ndn.Pit.satisfy_timed pit (name "/mid"));
  Alcotest.(check (list string))
    "only the old cohort expires, in canonical order" [ "/a"; "/b" ]
    (List.map Ndn.Name.to_string (Ndn.Pit.expire pit ~now:105.))
    ;
  Alcotest.(check int) "survivor remains" 1 (Ndn.Pit.size pit);
  Alcotest.(check (list string)) "second sweep takes the rest" [ "/late" ]
    (List.map Ndn.Name.to_string (Ndn.Pit.expire pit ~now:200.));
  Alcotest.(check (list string)) "idempotent once empty" []
    (List.map Ndn.Name.to_string (Ndn.Pit.expire pit ~now:300.))

(* --- graceful degradation, end-to-end --- *)

let prefix = name "/s"

let add_producer p =
  Ndn.Node.add_producer p ~prefix (fun i ->
      Some
        (Ndn.Data.create ~producer:"P" ~key:"k" ~payload:"v"
           i.Ndn.Interest.name))

let make_pair ?(loss = 0.) ?tracer () =
  let net = Ndn.Network.create ~seed:3 ?tracer () in
  let c = Ndn.Network.add_node net ~caching:false "C" in
  let p = Ndn.Network.add_node net "P" in
  let cf, _ = Ndn.Network.connect net ~loss ~latency:(Sim.Latency.Constant 1.) c p in
  Ndn.Network.route net c ~prefix ~via:cf;
  add_producer p;
  (net, c)

let fetch_sync ?max_retries ?estimator ?backoff net c n =
  let result = ref None in
  Ndn.Consumer.fetch c ?max_retries ?estimator ?backoff
    ~on_done:(fun o -> result := Some o)
    n;
  Ndn.Network.run net;
  match !result with
  | Some o -> o
  | None -> Alcotest.fail "on_done never fired"

(* Total loss with the backoff policy armed: the budget burns down
   through jittered waits and the give-up is traced. *)
let test_budget_exhaustion_traced () =
  let tracer = Sim.Trace.create () in
  let net, c = make_pair ~loss:1.0 ~tracer () in
  let estimator = Ndn.Consumer.Rtt_estimator.create ~initial_rto_ms:50. () in
  let backoff =
    Ndn.Consumer.backoff ~base_ms:10. ~factor:2. ~jitter:0. (Sim.Rng.create 1)
  in
  let o = fetch_sync ~max_retries:2 ~estimator ~backoff net c (name "/s/x") in
  Alcotest.(check bool) "no data" true (o.Ndn.Consumer.data = None);
  Alcotest.(check int) "budget spent exactly" 3 o.Ndn.Consumer.attempts;
  Alcotest.(check int) "no NACKs on a silent path" 0 o.Ndn.Consumer.nacks;
  (* Timeouts at the backed-off RTOs (50, 100, 200) interleaved with
     the policy's waits (10, 20): 50 + 10 + 100 + 20 + 200. *)
  Alcotest.(check (float 1e-9)) "elapsed = RTOs plus backoff waits" 380.
    o.Ndn.Consumer.elapsed_ms;
  let tr = render tracer in
  Alcotest.(check bool) "give-up is traced" true
    (contains_sub ~sub:"consumer.give_up" tr);
  Alcotest.(check bool) "trace carries the attempt count" true
    (contains_sub ~sub:"attempts" tr)

(* C -- R with no route beyond R: with NACKs on, the No_route refusal
   arrives one RTT after each interest and the fetch fails in tens of
   virtual ms; with NACKs off the same fetch must wait out every RTO. *)
let no_route_fetch ~nacks =
  let tracer = Sim.Trace.create () in
  let net = Ndn.Network.create ~seed:3 ~tracer () in
  let c = Ndn.Network.add_node net ~caching:false "C" in
  let r = Ndn.Network.add_node net "R" in
  let cf, _ =
    Ndn.Network.connect net ~latency:(Sim.Latency.Constant 5.) c r
  in
  Ndn.Network.route net c ~prefix:(name "/nr") ~via:cf;
  Ndn.Node.set_nacks_enabled c nacks;
  Ndn.Node.set_nacks_enabled r nacks;
  let estimator = Ndn.Consumer.Rtt_estimator.create ~initial_rto_ms:500. () in
  let backoff =
    Ndn.Consumer.backoff ~base_ms:10. ~factor:2. ~jitter:0. (Sim.Rng.create 1)
  in
  let o = fetch_sync ~max_retries:1 ~estimator ~backoff net c (name "/nr/x") in
  (o, render tracer)

let test_nack_beats_timeout () =
  let fast, fast_trace = no_route_fetch ~nacks:true in
  let slow, _ = no_route_fetch ~nacks:false in
  Alcotest.(check bool) "both give up" true
    (fast.Ndn.Consumer.data = None && slow.Ndn.Consumer.data = None);
  Alcotest.(check int) "every attempt answered by a NACK" 2
    fast.Ndn.Consumer.nacks;
  Alcotest.(check int) "silent path saw no NACK" 0 slow.Ndn.Consumer.nacks;
  Alcotest.(check bool) "NACK recovery well under one RTO" true
    (fast.Ndn.Consumer.elapsed_ms < 100.);
  Alcotest.(check bool) "timeout path waits out the RTOs" true
    (slow.Ndn.Consumer.elapsed_ms >= 500.);
  Alcotest.(check bool) "refusal is traced" true
    (contains_sub ~sub:"nack.no_route" fast_trace)

(* A depth-1 transmission queue on C->P: of three simultaneous
   interests one serializes, the other two are dropped at the tail and
   answered with Congested NACKs. *)
let test_queue_congestion_nacks () =
  let tracer = Sim.Trace.create () in
  let net, c = make_pair ~tracer () in
  Ndn.Node.set_nacks_enabled c true;
  (match
     Ndn.Network.set_link_queue net ~a:"C" ~b:"P" ~rate_mbps:0.008 ~depth:1 ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let outcomes = Array.make 3 None in
  Array.iteri
    (fun i _ ->
      let backoff =
        Ndn.Consumer.backoff ~base_ms:10. ~jitter:0. (Sim.Rng.create (i + 1))
      in
      Ndn.Consumer.fetch c ~max_retries:0 ~backoff
        ~on_done:(fun o -> outcomes.(i) <- Some o)
        (name (Printf.sprintf "/s/q%d" i)))
    outcomes;
  Ndn.Network.run net;
  let get i =
    match outcomes.(i) with
    | Some o -> o
    | None -> Alcotest.failf "fetch %d never completed" i
  in
  Alcotest.(check bool) "head of line is served" true
    ((get 0).Ndn.Consumer.data <> None);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "fetch %d dropped" i)
        true
        ((get i).Ndn.Consumer.data = None);
      Alcotest.(check int)
        (Printf.sprintf "fetch %d failed by NACK" i)
        1 (get i).Ndn.Consumer.nacks)
    [ 1; 2 ];
  let tr = render tracer in
  Alcotest.(check bool) "drop is traced" true
    (contains_sub ~sub:"queue.drop" tr);
  Alcotest.(check bool) "congestion NACK is traced" true
    (contains_sub ~sub:"nack.congested" tr)

(* F -- R -- D: unsatisfiable flood through a capacity-4 PIT at R.  D
   (NACKs off) swallows what R forwards, so four entries pin R's table
   for their full lifetime and everything after bounces as Pit_full. *)
let test_flood_bounces_off_finite_pit () =
  let tracer = Sim.Trace.create () in
  let net = Ndn.Network.create ~seed:3 ~tracer () in
  let f = Ndn.Network.add_node net ~caching:false "F" in
  let r = Ndn.Network.add_node net "R" in
  let d = Ndn.Network.add_node net "D" in
  let boom = name "/boom" in
  let ff, _ = Ndn.Network.connect net ~latency:(Sim.Latency.Constant 1.) f r in
  let rf, _ = Ndn.Network.connect net ~latency:(Sim.Latency.Constant 1.) r d in
  Ndn.Network.route net f ~prefix:boom ~via:ff;
  Ndn.Network.route net r ~prefix:boom ~via:rf;
  Ndn.Node.set_nacks_enabled f true;
  Ndn.Node.set_nacks_enabled r true;
  Ndn.Node.set_pit_limits r ~capacity:4 ~admission:Ndn.Pit.Drop_new ();
  let flood =
    Workload.Flood.attach
      { Workload.Flood.default with timeout_ms = Some 500. }
      ~node:f ~prefix:boom ~rng:(Sim.Rng.create 9) ~until:60. ()
  in
  Ndn.Network.run net;
  let issued = Workload.Flood.interests_issued flood in
  let nacked = Workload.Flood.nacks_received flood in
  let timed_out = Workload.Flood.timeouts flood in
  Alcotest.(check bool) "flood ran at roughly the configured rate" true
    (issued >= 30);
  Alcotest.(check int) "every interest is accounted for" issued
    (nacked + timed_out);
  Alcotest.(check int) "exactly the pinned entries time out" 4 timed_out;
  Alcotest.(check bool) "the rest bounce as NACKs" true (nacked >= issued - 4);
  let tr = render tracer in
  Alcotest.(check bool) "admission drop is traced" true
    (contains_sub ~sub:"pit.drop" tr);
  Alcotest.(check bool) "refusal reason is traced" true
    (contains_sub ~sub:"nack.pit_full" tr)

(* --- identity: the whole robust plane is deterministic --- *)

let agg_config =
  {
    Workload.Aggregate.default with
    users = 50_000;
    req_per_user_per_hour = 60.;
    catalog = 20;
    zipf_s = 0.9;
    diurnal_amplitude = 0.4;
    diurnal_period_ms = 600.;
    max_retries = 1;
  }

let fault_schedule =
  let open Sim.Fault in
  sort
    [
      { at = 30.;
        kind =
          Link_degrade
            { a = "R1"; b = "R2"; dir = Both; loss = 0.05;
              latency_factor = 0.5; until = 120. } };
      { at = 40.; kind = Link_down { a = "U"; b = "R1"; dir = Both } };
      { at = 70.; kind = Link_up { a = "U"; b = "R1"; dir = Both } };
      { at = 90.; kind = Node_crash { node = "R2"; preserve_cs = false } };
      { at = 110.; kind = Node_restart { node = "R2" } };
    ]

(* Flood at F and aggregate consumers at U, converging on the
   queue-limited R1--R2 link, finite PITs at both routers, NACKs on
   everywhere, a fault schedule on top — the kitchen sink.  Returns
   the rendered trace and the processed-event total. *)
let overload_run ?shards ?(watchdog = false) ~seed () =
  let tracer = Sim.Trace.create () in
  let net = Ndn.Network.create ~seed ~tracer ?shards () in
  if watchdog then
    Ndn.Network.set_stall_watchdog net ~stall_ms:300_000.
      ~clock_ms:(fun () -> 0.)
      ();
  let f = Ndn.Network.add_node net ~caching:false "F" in
  let u = Ndn.Network.add_node net ~caching:false "U" in
  let r1 = Ndn.Network.add_node net ~cs_capacity:16 "R1" in
  let r2 = Ndn.Network.add_node net ~cs_capacity:16 "R2" in
  let p = Ndn.Network.add_node net "P" in
  let lat ms = Sim.Latency.Constant ms in
  let ff, _ = Ndn.Network.connect net ~latency:(lat 2.) f r1 in
  let uf, _ = Ndn.Network.connect net ~latency:(lat 2.) u r1 in
  let r1f, _ = Ndn.Network.connect net ~latency:(lat 3.) r1 r2 in
  let r2f, _ = Ndn.Network.connect net ~latency:(lat 4.) r2 p in
  let boom = name "/boom" in
  Ndn.Network.route net f ~prefix:boom ~via:ff;
  Ndn.Network.route net r1 ~prefix:boom ~via:r1f;
  Ndn.Network.route net u ~prefix ~via:uf;
  Ndn.Network.route net r1 ~prefix ~via:r1f;
  Ndn.Network.route net r2 ~prefix ~via:r2f;
  add_producer p;
  List.iter (fun n -> Ndn.Node.set_nacks_enabled n true) [ f; u; r1; r2 ];
  Ndn.Node.set_pit_limits r1 ~capacity:6 ~admission:Ndn.Pit.Evict_oldest ();
  Ndn.Node.set_pit_limits r2 ~capacity:8 ~admission:Ndn.Pit.Drop_new ();
  (match
     Ndn.Network.set_link_queue net ~a:"R1" ~b:"R2" ~rate_mbps:0.5 ~depth:4 ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Ndn.Network.install_faults net fault_schedule with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore
    (Workload.Flood.attach
       { Workload.Flood.default with
         rate_per_ms = 0.5; timeout_ms = Some 400. }
       ~node:f ~prefix:boom ~rng:(Sim.Rng.create 33) ~until:150. ());
  ignore
    (Workload.Aggregate.attach agg_config ~node:u ~prefix
       ~rng:(Sim.Rng.create 77) ~until:150. ());
  Ndn.Consumer.fetch_sequence u ~max_retries:2
    ~backoff:(Ndn.Consumer.backoff ~jitter:0.2 (Sim.Rng.create 5))
    ~names:[ name "/s/a"; name "/s/b"; name "/s/c" ]
    ~on_done:(fun _ -> ())
    ();
  Ndn.Network.run net;
  (render tracer, Ndn.Network.events_processed net)

(* K-invariance covers every record but [engine.step], which only the
   K = 1 engine emits. *)
let drop_engine_steps trace =
  String.split_on_char '\n' trace
  |> List.filter (fun l -> not (contains_sub ~sub:{|"kind":"engine.step"|} l))
  |> String.concat "\n"

let test_shard_identity_under_overload () =
  let t1, e1 = overload_run ~shards:1 ~seed:7 () in
  let t1 = drop_engine_steps t1 in
  Alcotest.(check bool) "overloaded run is non-trivial" true
    (String.length t1 > 1000);
  Alcotest.(check bool) "the robust plane is exercised" true
    (contains_sub ~sub:"queue.drop" t1 || contains_sub ~sub:"nack." t1);
  List.iter
    (fun k ->
      let tk, ek = overload_run ~shards:k ~seed:7 () in
      Alcotest.(check string)
        (Printf.sprintf "shards %d vs 1: trace" k)
        t1 (drop_engine_steps tk);
      Alcotest.(check int)
        (Printf.sprintf "shards %d vs 1: events" k)
        e1 ek)
    [ 2; 4 ];
  (* The armed watchdog only watches: byte-identical output. *)
  let tw, ew = overload_run ~shards:4 ~watchdog:true ~seed:7 () in
  Alcotest.(check string) "watchdog does not perturb the trace" t1
    (drop_engine_steps tw);
  Alcotest.(check int) "watchdog does not perturb event totals" e1 ew

let test_jobs_identity_under_overload () =
  let trial i =
    let trace, events = overload_run ~seed:(60 + i) () in
    Printf.sprintf "%s#%d" trace events
  in
  let jobs = min 4 (Sim.Parallel.default_jobs ()) in
  let serial = Sim.Parallel.map ~jobs:1 3 trial in
  let parallel = Sim.Parallel.map ~jobs 3 trial in
  Alcotest.(check int) "same trial count" (Array.length serial)
    (Array.length parallel);
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d non-trivial" i)
        true
        (String.length s > 1000);
      Alcotest.(check string)
        (Printf.sprintf "trial %d: jobs %d vs 1" i jobs)
        s parallel.(i))
    serial

(* --- identity: PIT sweep scheduling leaves every record in place ---

   A small flood against finite PITs with NACKs on, so that sweep
   timeouts, crash drains, admission drops, evictions and NACK relays
   all reach the trace.  Latencies are constant, so many events land on
   the same instant and the sweeps' tie-break order matters.  A second
   burst arrives while the first burst's sweeps are still pending.

   The pinned digests cover the JSONL with [engine.step] lines removed:
   those carry the engine's event count and queue depth, which the
   number of sweep events legitimately moves.  Every other record —
   node, name, time, attrs, order — is pinned at K = 1 and at
   K = 2; the digests were taken before the per-node sweep
   replaced the per-forward one. *)
let sweep_flood_trace ?shards () =
  let tracer = Sim.Trace.create () in
  let net = Ndn.Network.create ~seed:19 ~tracer ?shards () in
  let f = Ndn.Network.add_node net ~caching:false "F" in
  let u = Ndn.Network.add_node net ~caching:false "U" in
  let r1 = Ndn.Network.add_node net ~cs_capacity:8 "R1" in
  let r2 = Ndn.Network.add_node net ~cs_capacity:8 "R2" in
  let d = Ndn.Network.add_node net "D" in
  let p = Ndn.Network.add_node net "P" in
  let lat ms = Sim.Latency.Constant ms in
  let ff, _ = Ndn.Network.connect net ~latency:(lat 0.5) f r1 in
  let uf, _ = Ndn.Network.connect net ~latency:(lat 0.5) u r1 in
  let r1f, _ = Ndn.Network.connect net ~latency:(lat 1.) r1 r2 in
  let r2d, _ = Ndn.Network.connect net ~latency:(lat 1.) r2 d in
  let r2p, _ = Ndn.Network.connect net ~latency:(lat 1.) r2 p in
  let boom = name "/boom" in
  Ndn.Network.route net f ~prefix:boom ~via:ff;
  Ndn.Network.route net r1 ~prefix:boom ~via:r1f;
  Ndn.Network.route net r2 ~prefix:boom ~via:r2d;
  Ndn.Network.route net u ~prefix ~via:uf;
  Ndn.Network.route net r1 ~prefix ~via:r1f;
  Ndn.Network.route net r2 ~prefix ~via:r2p;
  add_producer p;
  (* D keeps NACKs off and has no route: it swallows the flood, so the
     entries upstream of it live out their lifetime. *)
  List.iter (fun n -> Ndn.Node.set_nacks_enabled n true) [ f; u; r1; r2 ];
  Ndn.Node.set_pit_limits r1 ~capacity:6 ~admission:Ndn.Pit.Evict_oldest ();
  Ndn.Node.set_pit_limits r2 ~capacity:4 ~admission:Ndn.Pit.Drop_new ();
  let open Sim.Fault in
  (match
     Ndn.Network.install_faults net
       [
         { at = 2020.; kind = Node_crash { node = "R2"; preserve_cs = false } };
         { at = 2100.; kind = Node_restart { node = "R2" } };
       ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let burst ~seed ~until =
    ignore
      (Workload.Flood.attach
         { Workload.Flood.default with rate_per_ms = 2. }
         ~node:f ~prefix:boom ~rng:(Sim.Rng.create seed) ~until ())
  in
  burst ~seed:41 ~until:30.;
  Ndn.Node.schedule_app_at f ~time:2000. (fun () -> burst ~seed:43 ~until:2030.);
  Ndn.Consumer.fetch_sequence u ~max_retries:2
    ~names:[ name "/s/a"; name "/s/b"; name "/s/a" ]
    ~on_done:(fun _ -> ())
    ();
  Ndn.Network.run net;
  drop_engine_steps (render tracer)

let sweep_flood_sha256 =
  "c8eb1f2c899d383f24888c70e68e7b815f685680db9bbe5884b322b87ca8123c"
let sweep_flood_sharded_sha256 =
  "c8eb1f2c899d383f24888c70e68e7b815f685680db9bbe5884b322b87ca8123c"

let test_sweep_trace_identity () =
  let plain = sweep_flood_trace () in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " is traced") true
        (contains_sub ~sub:(Printf.sprintf {|"kind":"%s"|} kind) plain))
    [ "pit.timeout"; "pit.drop"; "nack.pit_full" ];
  Alcotest.(check bool) "crash drains are traced" true
    (contains_sub ~sub:{|"reason":"crash"|} plain);
  Alcotest.(check string) "sha256, K = 1" sweep_flood_sha256
    (Ndn_crypto.Sha256.hex_digest plain);
  Alcotest.(check string) "sha256, --shards 2" sweep_flood_sharded_sha256
    (Ndn_crypto.Sha256.hex_digest (sweep_flood_trace ~shards:2 ()))

(* --- PIT sweeps against the one-sweep-per-forward rule ---

   One forwarder, driven directly through [Node.receive], [crash],
   [restart] and [set_pit_limits] at random times, many of them under
   1 ms apart and with exact ties (gaps are multiples of 1/8 ms against
   a 4 ms lifetime, so arm times land on other events).  The reference
   is written here: a bare [Pit] on its own engine that arms one sweep
   event per [Forward], as the forwarder once did.  Both sides schedule
   each operation from the previous one, so same-instant events have
   the same scheduling history on both, and the [pit.timeout] rows
   (name, time, attrs) must agree row for row.  So must the clock once
   the run has drained: skipped sweeps must not end the run early. *)

type sweep_op =
  | Sw_interest of int * int * int  (* name, face (2 or 3), nonce *)
  | Sw_data of int
  | Sw_crash
  | Sw_restart
  | Sw_limits of int * Ndn.Pit.admission

let sweep_lifetime = 4.

let print_sweep_op = function
  | Sw_interest (n, f, k) -> Printf.sprintf "interest /p/%d face %d nonce %d" n f k
  | Sw_data n -> Printf.sprintf "data /p/%d" n
  | Sw_crash -> "crash"
  | Sw_restart -> "restart"
  | Sw_limits (c, a) -> Printf.sprintf "limits %d %s" c (Ndn.Pit.admission_to_string a)

let sweep_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map3 (fun n f k -> Sw_interest (n, f, k)) (int_range 0 3) (int_range 2 3)
              (int_range 0 2));
        (3, map (fun n -> Sw_data n) (int_range 0 3));
        (1, return Sw_crash);
        (1, return Sw_restart);
        ( 1,
          map2 (fun c a -> Sw_limits (c, a)) (int_range 1 3)
            (oneofl [ Ndn.Pit.Drop_new; Ndn.Pit.Evict_oldest; Ndn.Pit.Per_face_fair ]) );
      ])

(* Gaps in eighths of a millisecond: mostly under 1 ms, some around
   the 5 ms arm delay, a few past it. *)
let sweep_gap_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> float_of_int k /. 8.) (int_range 0 7));
        (3, map (fun k -> float_of_int k /. 8.) (int_range 8 48));
        (1, map (fun k -> float_of_int k /. 8.) (int_range 49 120));
      ])

let sweep_name n = name (Printf.sprintf "/p/%d" n)

let sweep_row time n attrs =
  Printf.sprintf "%.6f %s %s" time (Ndn.Name.to_string n)
    (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))

(* The forwarder under test, with caching off so that every interest
   reaches the PIT.  Returns its pit.timeout rows and the final
   clock. *)
let sweep_real script =
  let engine = Sim.Engine.create () in
  let tracer = Sim.Trace.create () in
  let node =
    Ndn.Node.create engine ~rng:(Sim.Rng.create 5) ~label:"N" ~tracer
      ~pit_lifetime_ms:sweep_lifetime ~caching:false ()
  in
  let up = Ndn.Node.add_wire_face node (fun _ -> ()) in
  ignore (Ndn.Node.add_wire_face node (fun _ -> ()));
  ignore (Ndn.Node.add_wire_face node (fun _ -> ()));
  Ndn.Fib.add_route (Ndn.Node.fib node) ~prefix:(name "/p") ~face:up;
  let apply = function
    | Sw_interest (n, face, k) ->
      Ndn.Node.receive node ~face
        (Ndn.Packet.Interest (Ndn.Interest.create ~nonce:(Int64.of_int k) (sweep_name n)))
    | Sw_data n ->
      Ndn.Node.receive node ~face:up
        (Ndn.Packet.Data
           (Ndn.Data.create ~producer:"P" ~key:"k" ~payload:"v" (sweep_name n)))
    | Sw_crash -> Ndn.Node.crash node
    | Sw_restart -> Ndn.Node.restart node
    | Sw_limits (capacity, admission) ->
      Ndn.Node.set_pit_limits node ~capacity ~admission ()
  in
  let rec step time = function
    | [] -> ()
    | (gap, op) :: rest ->
      let time = time +. gap in
      Ndn.Node.schedule_app_at node ~time (fun () ->
          apply op;
          step time rest)
  in
  step 0. script;
  Sim.Engine.run engine;
  (Array.to_list (Sim.Trace.events tracer)
  |> List.filter_map (fun (e : Sim.Trace.event) ->
         if e.Sim.Trace.kind = Sim.Trace.Pit_timeout then
           Some (sweep_row e.Sim.Trace.time (Ndn.Name.of_string e.Sim.Trace.name) e.Sim.Trace.attrs)
         else None))
  @ [ Printf.sprintf "end %.6f" (Sim.Engine.now engine) ]

(* The reference: the table alone, one sweep event per [Forward]. *)
let sweep_reference script =
  let engine = Sim.Engine.create () in
  let pit = ref (Ndn.Pit.create ~lifetime_ms:sweep_lifetime ()) in
  let alive = ref true in
  let rows = ref [] in
  let emit attrs n = rows := sweep_row (Sim.Engine.now engine) n attrs :: !rows in
  let apply = function
    | Sw_interest (n, face, k) when !alive -> (
      let now = Sim.Engine.now engine in
      match Ndn.Pit.insert !pit ~now ~face ~nonce:(Int64.of_int k) (sweep_name n) with
      | Ndn.Pit.Forward ->
        ignore
          (Sim.Engine.schedule engine ~delay:(sweep_lifetime +. 1.) (fun () ->
               List.iter (emit [])
                 (Ndn.Pit.expire !pit ~now:(Sim.Engine.now engine))))
      | _ -> ())
    | Sw_data n when !alive -> ignore (Ndn.Pit.satisfy_timed !pit (sweep_name n))
    | Sw_crash when !alive ->
      alive := false;
      let now = Sim.Engine.now engine in
      List.iter (emit [ ("reason", "crash") ])
        (Ndn.Pit.expire !pit ~now:(now +. sweep_lifetime +. 1.))
    | Sw_restart -> alive := true
    | Sw_limits (capacity, admission) ->
      pit := Ndn.Pit.create ~lifetime_ms:sweep_lifetime ~capacity ~admission ()
    | Sw_interest _ | Sw_data _ | Sw_crash -> ()
  in
  let rec step time = function
    | [] -> ()
    | (gap, op) :: rest ->
      let time = time +. gap in
      ignore
        (Sim.Engine.schedule_at engine ~time (fun () ->
             apply op;
             step time rest))
  in
  step 0. script;
  Sim.Engine.run engine;
  List.rev (Printf.sprintf "end %.6f" (Sim.Engine.now engine) :: !rows)

let qcheck_sweep_model =
  let print script =
    String.concat "; "
      (List.map (fun (gap, op) -> Printf.sprintf "+%g %s" gap (print_sweep_op op)) script)
  in
  QCheck.Test.make ~count:300
    ~name:"one sweep per node times out what one per forward did"
    (QCheck.make ~print
       QCheck.Gen.(list_size (int_range 1 60) (pair sweep_gap_gen sweep_op_gen)))
    (fun script ->
      let want = sweep_reference script in
      let got = sweep_real script in
      if got <> want then
        QCheck.Test.fail_reportf "node rows [%s], reference rows [%s]"
          (String.concat "; " got) (String.concat "; " want);
      true)

(* --- stall watchdog plumbing --- *)

let test_watchdog_validation () =
  let t = Sim.Shard.create ~shards:2 () in
  List.iter
    (fun bad ->
      match Sim.Shard.set_watchdog t ~stall_ms:bad ~clock_ms:(fun () -> 0.) () with
      | () -> Alcotest.failf "stall_ms %g must be rejected" bad
      | exception Invalid_argument _ -> ())
    [ 0.; -5.; Float.infinity; Float.nan ];
  Sim.Shard.set_watchdog t ~clock_ms:(fun () -> 0.) ();
  Sim.Shard.clear_watchdog t;
  let net = Ndn.Network.create ~seed:1 () in
  (* Legacy mode: arming is a documented no-op. *)
  Ndn.Network.set_stall_watchdog net ~clock_ms:(fun () -> 0.) ()

let () =
  Alcotest.run "overload"
    [
      ( "backoff",
        [
          QCheck_alcotest.to_alcotest qcheck_backoff_monotone_capped;
          QCheck_alcotest.to_alcotest qcheck_backoff_jitter;
          Alcotest.test_case "parameter validation" `Quick
            test_backoff_validation;
        ] );
      ( "pit admission",
        [
          Alcotest.test_case "drop-new" `Quick test_pit_drop_new;
          Alcotest.test_case "evict-oldest" `Quick test_pit_evict_oldest;
          Alcotest.test_case "per-face-fair" `Quick test_pit_per_face_fair;
          Alcotest.test_case "expiry index" `Quick test_pit_expiry_index;
          QCheck_alcotest.to_alcotest qcheck_sweep_model;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "budget exhaustion traced" `Quick
            test_budget_exhaustion_traced;
          Alcotest.test_case "NACK beats timeout" `Quick
            test_nack_beats_timeout;
          Alcotest.test_case "queue congestion NACKs" `Quick
            test_queue_congestion_nacks;
          Alcotest.test_case "flood bounces off finite PIT" `Quick
            test_flood_bounces_off_finite_pit;
        ] );
      ( "identity",
        [
          Alcotest.test_case "shards 1/2/4 under overload" `Slow
            test_shard_identity_under_overload;
          Alcotest.test_case "jobs 1 vs 4 under overload" `Slow
            test_jobs_identity_under_overload;
          Alcotest.test_case "PIT sweeps leave records in place" `Quick
            test_sweep_trace_identity;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "arming and validation" `Quick
            test_watchdog_validation;
        ] );
    ]
