(* Cross-library integration tests: the paper's attack/defence stories
   played end-to-end through the full stack. *)

let name = Ndn.Name.of_string

(* Story 1 (Section III): the consumer-privacy attack works against
   plain NDN in every topology. *)
let test_attack_succeeds_everywhere () =
  List.iter
    (fun (label, make, floor) ->
      let r =
        Attack.Timing_experiment.run
          ~make_setup:(fun ~seed ~tracer:_ -> make ~seed)
          ~contents:25 ~runs:2 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s success %.3f above %.2f" label
           r.Attack.Timing_experiment.success_rate floor)
        true
        (r.Attack.Timing_experiment.success_rate > floor))
    [
      ("LAN", (fun ~seed -> Ndn.Network.lan ~seed ()), 0.97);
      ("WAN", (fun ~seed -> Ndn.Network.wan ~seed ()), 0.95);
      ("local host", (fun ~seed -> Ndn.Network.local_host ~seed ()), 0.97);
    ]

(* Story 2 (Section V-A): unpredictable names end-to-end — the honest
   parties communicate through router caches, the adversary cannot
   probe, and retransmission still benefits from caching. *)
let test_unpredictable_names_end_to_end () =
  let producer_cfg =
    { Ndn.Network.default_producer_config with strict_match = true }
  in
  let setup = Ndn.Network.lan ~producer:producer_cfg () in
  let session =
    Core.Unpredictable_names.create ~secret:"alice-bob"
      ~prefix:(name "/prod/call/7")
  in
  (* Bob (the producer host) serves only authentic session names. *)
  let bob_key = setup.Ndn.Network.producer_key in
  Ndn.Node.add_producer setup.Ndn.Network.producer_host
    ~prefix:(name "/prod/call/7") (fun interest ->
      match Core.Unpredictable_names.verify_name session interest.Ndn.Interest.name with
      | Some seq ->
        (* Generous freshness: virtual time advances by whole probe
           timeouts between the fetches in this test. *)
        Some
          (Core.Unpredictable_names.make_data session ~producer:"bob" ~key:bob_key
             ~freshness_ms:120_000. ~payload:(Printf.sprintf "frame-%d" seq) ~seq ())
      | None -> None)
  |> ignore;
  (* Alice fetches frame 3 by its unpredictable name. *)
  let frame3 = Core.Unpredictable_names.name_of_seq session ~seq:3 in
  (match Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user frame3 with
  | Some _ -> ()
  | None -> Alcotest.fail "Alice could not fetch through the session");
  (* The adversary cannot construct the name; prefix probing returns
     nothing because the content demands strict matching. *)
  Alcotest.(check bool) "prefix probe starves" true
    (Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary
       ~timeout_ms:500. (name "/prod/call/7/3")
    = None);
  Alcotest.(check bool) "guessed rand starves" true
    (Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary
       ~timeout_ms:500. (name "/prod/call/7/3/0123456789abcdef0123")
    = None);
  (* Retransmission: Alice re-requests frame 3 and is served from R's
     cache, faster than the original fetch. *)
  match
    Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user frame3
  with
  | Some rtt -> Alcotest.(check bool) "retransmission hits cache" true (rtt < 6.)
  | None -> Alcotest.fail "retransmission failed"

(* Story 3 (Section V-B + VI): the same probing campaign measured
   against each countermeasure — distinguisher accuracy collapses. *)
let test_countermeasures_degrade_attack () =
  let run cm =
    let make_setup ~seed ~tracer:_ =
      let producer =
        { Ndn.Network.default_producer_config with producer_private = true }
      in
      let setup = Ndn.Network.lan ~seed ~producer () in
      (match cm with
      | None -> ()
      | Some cm ->
        ignore
          (Core.Private_router.attach setup.Ndn.Network.router
             ~rng:(Sim.Rng.create (seed * 7)) cm));
      setup
    in
    (Attack.Timing_experiment.run ~make_setup ~contents:25 ~runs:2 ())
      .Attack.Timing_experiment.success_rate
  in
  let baseline = run None in
  let delayed = run (Some (Core.Private_router.Delay_private Core.Delay.Content_specific)) in
  Alcotest.(check bool)
    (Printf.sprintf "baseline broken (%.3f)" baseline)
    true (baseline > 0.97);
  Alcotest.(check bool)
    (Printf.sprintf "content-specific delay restores privacy (%.3f)" delayed)
    true (delayed < 0.62)

(* Random-Cache in-network: the adversary probing the SAME content
   repeatedly sees a random-length miss run, matching Algorithm 1's
   law. *)
let test_random_cache_mimic_matches_law () =
  let domain = 6 in
  let miss_runs = ref [] in
  for seed = 0 to 39 do
    let producer =
      { Ndn.Network.default_producer_config with producer_private = true }
    in
    let setup = Ndn.Network.lan ~seed ~producer () in
    ignore
      (Core.Private_router.attach setup.Ndn.Network.router
         ~rng:(Sim.Rng.create (seed + 500))
         (Core.Private_router.Random_cache_mimic
            { kdist = Core.Kdist.Uniform domain; grouping = Core.Grouping.By_content }));
    let n = name "/prod/target" in
    (* First fetch (real miss) then probe until served fast. *)
    let threshold = 5. (* ms: hit-vs-miss boundary in this LAN *) in
    let rec probe i misses =
      if i > domain + 3 then misses
      else
        match Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary n with
        | Some rtt when rtt < threshold -> misses
        | Some _ -> probe (i + 1) (misses + 1)
        | None -> misses
    in
    miss_runs := probe 1 0 :: !miss_runs
  done;
  (* Every run is: 1 real miss + (k_C + 1) mimicked misses (Algorithm
     1's first tracked request plus k_C thresholded ones), so run
     lengths lie in [2, domain + 1] for k_C uniform on [0, domain). *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "run %d in range" m)
        true
        (m >= 2 && m <= domain + 1))
    !miss_runs;
  let distinct = List.sort_uniq compare !miss_runs in
  Alcotest.(check bool)
    (Printf.sprintf "thresholds vary across routers (%d distinct)" (List.length distinct))
    true
    (List.length distinct >= 3)

(* Story 4 (Section VI + VII): formal guarantee meets trace replay —
   a Uniform-Random-Cache parameterized for (k, 0, delta)-privacy
   keeps its guarantee (checked exactly) while costing a bounded hit
   rate on a real workload. *)
let test_guarantee_and_utility_together () =
  let k = 5 and delta = 0.05 in
  let kdist = Core.Kdist.uniform_for ~k ~delta in
  (* (a) formal: exact achieved delta within budget *)
  let k_dist = Core.Kdist.to_dist kdist in
  let domain = match kdist with Core.Kdist.Uniform d -> d | _ -> assert false in
  let achieved =
    Privacy.Outputs.achieved_delta ~k_dist ~k ~probes:(domain + k + 2) ~eps:0.
  in
  Alcotest.(check bool)
    (Printf.sprintf "guarantee met: %.4f <= %.4f" achieved delta)
    true
    (achieved <= delta +. 1e-9);
  (* (b) utility: replay cost vs no-privacy bounded *)
  let trace =
    Workload.Ircache.generate
      { Workload.Ircache.default with Workload.Ircache.requests = 30_000; seed = 8 }
  in
  let rate policy =
    Workload.Replay.observable_hit_rate
      (Workload.Replay.replay trace
         {
           Workload.Replay.default_config with
           Workload.Replay.policy;
           cache_capacity = 4000;
           private_mode = Workload.Replay.Per_content 0.2;
         })
  in
  let base = rate Core.Policy.No_privacy in
  let rc = rate (Core.Policy.Random_cache kdist) in
  let always = rate Core.Policy.Always_delay in
  Alcotest.(check bool)
    (Printf.sprintf "ordering always %.3f <= rc %.3f <= base %.3f" always rc base)
    true
    (always <= rc +. 0.005 && rc <= base +. 0.005)

(* Failure injection: cache eviction between probes makes Algorithm 1
   and the real cache disagree gracefully (observable miss, never a
   phantom hit). *)
let test_eviction_between_probes () =
  let trace_records =
    (* Request content 1, flood the cache, request content 1 again. *)
    Array.of_list
      (List.concat
         [
           [ { Workload.Trace.time_s = 0.; user = 0; content = 1 } ];
           List.init 50 (fun i ->
               { Workload.Trace.time_s = 1. +. float_of_int i; user = 0; content = 100 + i });
           [ { Workload.Trace.time_s = 100.; user = 0; content = 1 } ];
         ])
  in
  let trace = Workload.Trace.create trace_records in
  let o =
    Workload.Replay.replay trace
      {
        Workload.Replay.default_config with
        Workload.Replay.cache_capacity = 10;
        policy = Core.Policy.Random_cache (Core.Kdist.Constant 0);
        private_mode = Workload.Replay.Per_content 1.;
      }
  in
  (* content 1 evicted before its second request: no observable hit
     even though its counter passed the threshold *)
  Alcotest.(check int) "no phantom hits" 0 o.Workload.Replay.observable_hits

(* The naive scheme leaks exact counts while Uniform-Random-Cache
   does not, demonstrated through the same attack code path. *)
let test_naive_vs_random_cache_leakage () =
  (match Attack.Counter_attack.demonstrate ~k:5 ~prior_requests:4 with
  | Some o -> Alcotest.(check int) "naive leaks exact count" 4 o.Attack.Counter_attack.recovered_count
  | None -> Alcotest.fail "attack should find a hit");
  let correct = ref 0 in
  let trials = 60 in
  for seed = 0 to trials - 1 do
    match
      Attack.Counter_attack.random_cache_resists ~kdist:(Core.Kdist.Uniform 60)
        ~prior_requests:4 ~seed
    with
    | Some o -> if o.Attack.Counter_attack.recovered_count = 4 then incr correct
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "random cache: only %d/%d exact" !correct trials)
    true
    (!correct < trials / 3)

(* Story 5: the full VoIP narrative — conversation, detection, defence —
   through the public API only. *)
let test_conversation_story () =
  (* Plain naming: detected. *)
  let setup = Ndn.Network.conversation ~seed:81 () in
  let session =
    Core.Interactive_session.start setup
      ~naming:Core.Interactive_session.Predictable ~frames:10 ()
  in
  Ndn.Network.run setup.Ndn.Network.cnet;
  Alcotest.(check bool) "call completed" true (Core.Interactive_session.complete session);
  Alcotest.(check bool) "eavesdropper detects the call" true
    (Attack.Interaction_attack.probe_conversation setup ()
    = Attack.Interaction_attack.Talking);
  (* Unpredictable naming: silent to the eavesdropper, same service. *)
  let setup2 = Ndn.Network.conversation ~seed:82 () in
  let session2 =
    Core.Interactive_session.start setup2
      ~naming:(Core.Interactive_session.Unpredictable "dh") ~frames:10 ()
  in
  Ndn.Network.run setup2.Ndn.Network.cnet;
  Alcotest.(check bool) "protected call also completed" true
    (Core.Interactive_session.complete session2);
  Alcotest.(check bool) "comparable latency" true
    (Core.Interactive_session.mean_frame_rtt session2
    < 2. *. Core.Interactive_session.mean_frame_rtt session +. 1.);
  Alcotest.(check bool) "eavesdropper blind" true
    (Attack.Interaction_attack.probe_conversation setup2 ()
    = Attack.Interaction_attack.Not_talking)

(* Story 6: a topology defined in the text format behaves identically to
   the built-in one for the headline attack. *)
let test_topology_spec_attack_story () =
  let spec = {spec|
node U caching=false proc=normal:0.9:0.18:0.3
node Adv caching=false proc=normal:0.9:0.18:0.3
node R proc=normal:0.9:0.18:0.3
node P proc=normal:0.9:0.18:0.3
link U R latency=normal:0.25:0.06:0.05
link Adv R latency=normal:0.25:0.06:0.05
link R P latency=normal:1.8:0.35:0.5
route U /prod via R
route Adv /prod via R
route R /prod via P
producer P /prod payload=512
|spec}
  in
  match Ndn.Topology_spec.parse ~seed:91 spec with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok topo ->
    let net = topo.Ndn.Topology_spec.network in
    let u = Ndn.Topology_spec.node topo "U" in
    let adv = Ndn.Topology_spec.node topo "Adv" in
    let warm = name "/prod/visited" and cold = name "/prod/not-visited" in
    ignore (Ndn.Network.fetch_rtt net ~from:u warm);
    let hit = Option.get (Ndn.Network.fetch_rtt net ~from:adv warm) in
    let miss = Option.get (Ndn.Network.fetch_rtt net ~from:adv cold) in
    Alcotest.(check bool)
      (Printf.sprintf "attack works in spec-defined topology (%.2f < %.2f)" hit miss)
      true
      (hit < miss -. 2.)

(* Story 7: wire-level round trip through a cache — what a real
   forwarder implementation would do with these packet bytes. *)
let test_wire_through_cache_story () =
  let d =
    Ndn.Data.create ~producer_private:true ~content_id:"album"
      ~producer:"P" ~key:"k" ~payload:(String.make 512 'v')
      (name "/prod/photo/1")
  in
  let bytes = Ndn.Wire.encode_data d in
  match Ndn.Wire.decode_data bytes with
  | Error e -> Alcotest.failf "decode: %s" (Sim.Scan.error_to_string e)
  | Ok d' ->
    Alcotest.(check bool) "signature still verifies" true (Ndn.Data.verify d' ~key:"k");
    let cs = Ndn.Content_store.create ~capacity:4 () in
    Ndn.Content_store.insert cs ~now:0. d' ();
    (match Ndn.Content_store.lookup cs ~now:1. (name "/prod/photo/1") with
    | Some d ->
      Alcotest.(check (option string)) "content id survived the wire"
        (Some "album") d.Ndn.Data.content_id
    | None -> Alcotest.fail "cache miss after insert")

(* Story 8: popularity estimation across the naive/random divide using
   only public APIs. *)
let test_popularity_story () =
  let naive =
    Attack.Popularity_attack.run ~kdist:(Core.Kdist.Constant 8) ~true_count:5
      ~max_count:9 ~trials:40 ()
  in
  let random =
    Attack.Popularity_attack.run ~kdist:(Core.Kdist.uniform_for ~k:5 ~delta:0.05)
      ~true_count:5 ~max_count:9 ~trials:40 ()
  in
  Alcotest.(check bool) "naive: count disclosed" true
    (naive.Attack.Popularity_attack.exact_rate > 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "random-cache: estimator degraded (%.2f exact, %.2f err)"
       random.Attack.Popularity_attack.exact_rate
       random.Attack.Popularity_attack.mean_abs_error)
    true
    (random.Attack.Popularity_attack.exact_rate < 0.5
    && random.Attack.Popularity_attack.mean_abs_error > 1.)

(* Story 9: reliable segmented transfer across a lossy WAN link with
   the retransmitting consumer underneath. *)
let test_lossy_segmented_transfer_story () =
  let net = Ndn.Network.create ~seed:93 () in
  let a = Ndn.Network.add_node net ~caching:false "A" in
  let r = Ndn.Network.add_node net "R" in
  let p = Ndn.Network.add_node net "P" in
  let base = name "/prod/iso" in
  let payload = String.init 4096 (fun i -> Char.chr (48 + (i mod 75))) in
  Ndn.Node.add_producer p ~prefix:base
    (Ndn.Segmentation.producer_handler ~base ~producer:"P" ~key:"k" ~payload
       ~segment_size:512 ());
  let fa, _ = Ndn.Network.connect net ~loss:0.25 ~latency:(Sim.Latency.Constant 2.) a r in
  let fr, _ = Ndn.Network.connect net ~latency:(Sim.Latency.Constant 2.) r p in
  Ndn.Network.route net a ~prefix:base ~via:fa;
  Ndn.Network.route net r ~prefix:base ~via:fr;
  (* Fetch each segment with the retransmitting consumer, then check
     the payload reassembles. *)
  let chunks = Array.make 8 None in
  let remaining = ref 8 in
  let rec fetch_seg i =
    Ndn.Consumer.fetch a ~max_retries:25
      ~on_done:(fun o ->
        match o.Ndn.Consumer.data with
        | Some d ->
          (match Ndn.Segmentation.parse_segment d with
          | Some (_, chunk) -> chunks.(i) <- Some chunk
          | None -> ());
          decr remaining
        | None -> fetch_seg i)
      (Ndn.Segmentation.segment_name ~base i)
  in
  for i = 0 to 7 do
    fetch_seg i
  done;
  Ndn.Network.run net;
  Alcotest.(check int) "all segments arrived" 0 !remaining;
  let reassembled =
    String.concat "" (Array.to_list (Array.map (Option.value ~default:"") chunks))
  in
  Alcotest.(check string) "payload intact across loss" payload reassembled

let () =
  Alcotest.run "integration"
    [
      ( "stories",
        [
          Alcotest.test_case "attack succeeds everywhere" `Slow
            test_attack_succeeds_everywhere;
          Alcotest.test_case "unpredictable names end-to-end" `Quick
            test_unpredictable_names_end_to_end;
          Alcotest.test_case "countermeasures degrade attack" `Slow
            test_countermeasures_degrade_attack;
          Alcotest.test_case "random-cache mimic law" `Slow
            test_random_cache_mimic_matches_law;
          Alcotest.test_case "guarantee + utility" `Slow
            test_guarantee_and_utility_together;
          Alcotest.test_case "eviction between probes" `Quick test_eviction_between_probes;
          Alcotest.test_case "naive vs random-cache leakage" `Quick
            test_naive_vs_random_cache_leakage;
          Alcotest.test_case "conversation story" `Quick test_conversation_story;
          Alcotest.test_case "topology-spec attack story" `Quick
            test_topology_spec_attack_story;
          Alcotest.test_case "wire through cache" `Quick test_wire_through_cache_story;
          Alcotest.test_case "popularity story" `Quick test_popularity_story;
          Alcotest.test_case "lossy segmented transfer" `Quick
            test_lossy_segmented_transfer_story;
        ] );
    ]
