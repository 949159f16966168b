(* Tests for the adversary suite: detector, probing, scope probing,
   segment amplification, counter recovery, correlation attacks. *)

let name = Ndn.Name.of_string

let check_close msg tol expected actual = Alcotest.(check (float tol)) msg expected actual

(* --- Detector --- *)

let test_detector_separable () =
  let hit = Array.init 100 (fun i -> 1. +. (0.01 *. float_of_int i)) in
  let miss = Array.init 100 (fun i -> 10. +. (0.01 *. float_of_int i)) in
  let d = Attack.Detector.train ~hit_samples:hit ~miss_samples:miss in
  check_close "perfect training accuracy" 1e-9 1. (Attack.Detector.training_accuracy d);
  Alcotest.(check bool) "threshold between clusters" true
    (Attack.Detector.threshold d > 2. && Attack.Detector.threshold d < 10.);
  Alcotest.(check bool) "classifies fast as hit" true
    (Attack.Detector.classify d 1.5 = Attack.Detector.Hit);
  Alcotest.(check bool) "classifies slow as miss" true
    (Attack.Detector.classify d 11. = Attack.Detector.Miss);
  check_close "perfect evaluation" 1e-9 1.
    (Attack.Detector.evaluate d ~hit_samples:hit ~miss_samples:miss)

let test_detector_flipped_order () =
  (* If "hits" are slower, the detector flips its rule. *)
  let hit = [| 10.; 11.; 12. |] and miss = [| 1.; 2.; 3. |] in
  let d = Attack.Detector.train ~hit_samples:hit ~miss_samples:miss in
  Alcotest.(check bool) "flipped classification works" true
    (Attack.Detector.classify d 11. = Attack.Detector.Hit
    && Attack.Detector.classify d 2. = Attack.Detector.Miss)

let test_detector_overlapping_accuracy_half () =
  (* Identical distributions: accuracy must hover near 1/2 on held-out
     data. *)
  let rng = Sim.Rng.create 3 in
  let gen () = Array.init 2000 (fun _ -> Sim.Rng.gaussian rng ~mean:5. ~stddev:1.) in
  let rate =
    Attack.Detector.success_rate ~hit_samples:(gen ()) ~miss_samples:(gen ()) ()
  in
  Alcotest.(check bool) (Printf.sprintf "no advantage (%.3f)" rate) true
    (rate > 0.45 && rate < 0.58)

let test_detector_gaussian_overlap_matches_bayes () =
  (* Two unit gaussians Delta apart: optimal accuracy = Phi(Delta/2). *)
  let rng = Sim.Rng.create 4 in
  let gen mean = Array.init 4000 (fun _ -> Sim.Rng.gaussian rng ~mean ~stddev:1.) in
  let rate = Attack.Detector.success_rate ~hit_samples:(gen 0.) ~miss_samples:(gen 1.) () in
  (* Phi(0.5) ~ 0.691 *)
  check_close "matches analytic Bayes accuracy" 0.03 0.691 rate

let test_detector_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Detector.train: empty sample set")
    (fun () -> ignore (Attack.Detector.train ~hit_samples:[||] ~miss_samples:[| 1. |]))

(* --- Probe primitives --- *)

let test_probe_baseline_is_cache_hit () =
  let setup = Ndn.Network.lan () in
  let reference = name "/prod/ref" in
  match Attack.Probe.baseline_hit_rtt setup reference with
  | Some d2 ->
    (* d2 must look like a hit: well under the miss RTT (~9ms). *)
    Alcotest.(check bool) (Printf.sprintf "baseline %.2f is hit-like" d2) true (d2 < 6.)
  | None -> Alcotest.fail "baseline timed out"

let test_two_probe_decision () =
  let setup = Ndn.Network.lan () in
  let target_warm = name "/prod/warm" and target_cold = name "/prod/cold" in
  Attack.Probe.warm setup target_warm;
  (match
     Attack.Probe.two_probe_decision setup ~target:target_warm
       ~reference:(name "/prod/ref1") ()
   with
  | Some d -> Alcotest.(check bool) "warm detected" true (d = Attack.Probe.Was_cached)
  | None -> Alcotest.fail "timeout");
  match
    Attack.Probe.two_probe_decision setup ~target:target_cold
      ~reference:(name "/prod/ref2") ()
  with
  | Some d -> Alcotest.(check bool) "cold detected" true (d = Attack.Probe.Not_cached)
  | None -> Alcotest.fail "timeout"

(* --- Timing experiments (scaled-down Figure 3) --- *)

let test_timing_experiment_lan () =
  let r =
    Attack.Timing_experiment.run
      ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ())
      ~contents:30 ~runs:2 ()
  in
  Alcotest.(check int) "no timeouts" 0 r.Attack.Timing_experiment.timeouts;
  Alcotest.(check bool)
    (Printf.sprintf "LAN distinguisher near-perfect (%.3f)"
       r.Attack.Timing_experiment.success_rate)
    true
    (r.Attack.Timing_experiment.success_rate > 0.97);
  Alcotest.(check bool) "hit mean below miss mean" true
    (Sim.Stats.mean_of r.Attack.Timing_experiment.hit_samples
    < Sim.Stats.mean_of r.Attack.Timing_experiment.miss_samples)

let test_timing_experiment_producer_overlap () =
  let r =
    Attack.Timing_experiment.run
      ~make_setup:(fun ~seed ~tracer:_ -> Ndn.Network.wan_producer ~seed ())
      ~contents:40 ~runs:2 ()
  in
  let s = r.Attack.Timing_experiment.success_rate in
  Alcotest.(check bool)
    (Printf.sprintf "producer-privacy success modest (%.3f)" s)
    true
    (s > 0.5 && s < 0.75)

let test_timing_experiment_defeated_by_content_specific_delay () =
  (* With the countermeasure attached to R, the distributions merge. *)
  let make_setup ~seed ~tracer:_ =
    let producer =
      { Ndn.Network.default_producer_config with producer_private = true }
    in
    let setup = Ndn.Network.lan ~seed ~producer () in
    ignore
      (Core.Private_router.attach setup.Ndn.Network.router
         ~rng:(Sim.Rng.create (seed + 1000))
         (Core.Private_router.Delay_private Core.Delay.Content_specific));
    setup
  in
  let r = Attack.Timing_experiment.run ~make_setup ~contents:30 ~runs:2 () in
  let s = r.Attack.Timing_experiment.success_rate in
  Alcotest.(check bool)
    (Printf.sprintf "countermeasure kills the distinguisher (%.3f)" s)
    true (s < 0.62)

(* --- Scope probe --- *)

let test_scope_probe () =
  let setup = Ndn.Network.lan () in
  let cached = name "/prod/cached" and fresh = name "/prod/fresh" in
  Attack.Probe.warm setup cached;
  Alcotest.(check bool) "cached detected" true
    (Attack.Scope_probe.probe setup cached = Attack.Scope_probe.Cached);
  Alcotest.(check bool) "fresh detected" true
    (Attack.Scope_probe.probe setup fresh = Attack.Scope_probe.Not_cached)

let test_scope_census () =
  let setup = Ndn.Network.lan () in
  let names = List.init 6 (fun i -> name (Printf.sprintf "/prod/n%d" i)) in
  (* warm the even ones *)
  List.iteri (fun i n -> if i mod 2 = 0 then Attack.Probe.warm setup n) names;
  let census = Attack.Scope_probe.census setup names in
  List.iteri
    (fun i (_, verdict) ->
      let expected =
        if i mod 2 = 0 then Attack.Scope_probe.Cached else Attack.Scope_probe.Not_cached
      in
      Alcotest.(check bool) (Printf.sprintf "name %d" i) true (verdict = expected))
    census

(* --- Segment amplification --- *)

let test_segment_formula () =
  check_close "n=1" 1e-12 0.59 (Attack.Segment_attack.theoretical_success ~p:0.59 ~segments:1);
  check_close "n=8 paper value" 1e-3 0.999
    (Attack.Segment_attack.theoretical_success ~p:0.59 ~segments:8);
  check_close "paper example row" 1e-12
    (1. -. (0.41 ** 4.))
    (Attack.Segment_attack.paper_example_row ~segments:4)

let test_segment_formula_monotone () =
  let rec go last n =
    if n > 20 then ()
    else begin
      let v = Attack.Segment_attack.theoretical_success ~p:0.3 ~segments:n in
      Alcotest.(check bool) "monotone in n" true (v >= last);
      go v (n + 1)
    end
  in
  go 0. 1

let test_segment_formula_errors () =
  Alcotest.check_raises "bad p" (Invalid_argument "Segment_attack: p out of range")
    (fun () -> ignore (Attack.Segment_attack.theoretical_success ~p:1.5 ~segments:2));
  Alcotest.check_raises "bad n" (Invalid_argument "Segment_attack: segments must be >= 1")
    (fun () -> ignore (Attack.Segment_attack.theoretical_success ~p:0.5 ~segments:0))

let test_segment_amplification_empirical () =
  (* In the overlapping producer-privacy topology, more segments help. *)
  let make_setup ~seed = Ndn.Network.wan_producer ~seed () in
  let r1 = Attack.Segment_attack.run ~make_setup ~segments:1 ~trials:30 () in
  let r8 = Attack.Segment_attack.run ~make_setup ~segments:8 ~trials:30 () in
  (* Majority voting is weaker than the paper's idealized
     "one success suffices" amplification (the adversary cannot tell
     WHICH classifications succeeded), so expect improvement over the
     single-segment attack, not the 0.999 of the closed form. *)
  Alcotest.(check bool)
    (Printf.sprintf "amplified (1 seg %.2f -> 8 segs %.2f)"
       r1.Attack.Segment_attack.amplified_success r8.Attack.Segment_attack.amplified_success)
    true
    (r8.Attack.Segment_attack.amplified_success
    >= r1.Attack.Segment_attack.amplified_success -. 0.1);
  Alcotest.(check bool) "8-segment vote beats coin flip" true
    (r8.Attack.Segment_attack.amplified_success > 0.55);
  Alcotest.(check bool) "closed form predicts near-certainty" true
    (r8.Attack.Segment_attack.predicted > 0.97)

(* --- Counter attack on the naive scheme --- *)

let test_counter_attack_exact_recovery () =
  for prior = 0 to 6 do
    match Attack.Counter_attack.demonstrate ~k:5 ~prior_requests:prior with
    | Some o ->
      Alcotest.(check int)
        (Printf.sprintf "recovers %d prior requests" prior)
        prior o.Attack.Counter_attack.recovered_count
    | None -> Alcotest.failf "attack found no hit for prior=%d" prior
  done

let test_counter_attack_budget () =
  let naive =
    Core.Random_cache.create ~kdist:(Core.Kdist.Constant 50) ~rng:(Sim.Rng.create 0) ()
  in
  Alcotest.(check bool) "insufficient budget returns None" true
    (Attack.Counter_attack.run naive ~k:50 (name "/x") ~max_probes:10 = None)

let test_counter_attack_fails_on_random_cache () =
  (* Against Random-Cache the recovered count is wrong most of the time. *)
  let trials = 100 in
  let wrong = ref 0 in
  for seed = 0 to trials - 1 do
    let prior = 3 in
    match
      Attack.Counter_attack.random_cache_resists
        ~kdist:(Core.Kdist.Uniform 40) ~prior_requests:prior ~seed
    with
    | Some o -> if o.Attack.Counter_attack.recovered_count <> prior then incr wrong
    | None -> incr wrong
  done;
  Alcotest.(check bool)
    (Printf.sprintf "wrong in %d/%d trials" !wrong trials)
    true
    (!wrong > trials / 2)

(* --- Correlation attack --- *)

let test_correlation_ungrouped_breaks () =
  let r =
    Attack.Correlation_attack.run ~grouping:Core.Grouping.By_content
      ~kdist:(Core.Kdist.Uniform 20) ~related_contents:30 ~prior_requests:3 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "ungrouped adversary near-certain (%.3f)"
       r.Attack.Correlation_attack.adversary_accuracy)
    true
    (r.Attack.Correlation_attack.adversary_accuracy > 0.9)

let test_correlation_grouped_resists () =
  (* Grouping collapses the M related contents to ONE counter — but
     that counter now sees M requests per honest fetch, so the
     threshold domain must scale by M to conceal the same number of
     honest fetches (see Correlation_attack's doc).  With the scaled
     domain the adversary's advantage collapses; with the unscaled one
     it does not — both facts are pinned. *)
  let m = 30 in
  let ungrouped =
    Attack.Correlation_attack.run ~grouping:Core.Grouping.By_content
      ~kdist:(Core.Kdist.Uniform 200) ~related_contents:m ~prior_requests:3 ()
  in
  let grouped_scaled =
    Attack.Correlation_attack.run
      ~grouping:(Core.Grouping.By_namespace 2)
      ~kdist:(Core.Kdist.Uniform (200 * m))
      ~related_contents:m ~prior_requests:3 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "scaled grouping resists (%.3f -> %.3f)"
       ungrouped.Attack.Correlation_attack.adversary_accuracy
       grouped_scaled.Attack.Correlation_attack.adversary_accuracy)
    true
    (grouped_scaled.Attack.Correlation_attack.adversary_accuracy
    < ungrouped.Attack.Correlation_attack.adversary_accuracy -. 0.1
    && grouped_scaled.Attack.Correlation_attack.adversary_accuracy < 0.6)

let test_correlation_content_id_grouping_equivalent () =
  let m = 30 in
  let by_id =
    Attack.Correlation_attack.run ~grouping:Core.Grouping.By_content_id
      ~kdist:(Core.Kdist.Uniform (200 * m))
      ~related_contents:m ~prior_requests:3 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "content-id grouping also resists (%.3f)"
       by_id.Attack.Correlation_attack.adversary_accuracy)
    true
    (by_id.Attack.Correlation_attack.adversary_accuracy < 0.6)

let test_correlation_theoretical_matches_empirical () =
  let kdist = Core.Kdist.Uniform 20 in
  let theoretical =
    Attack.Correlation_attack.advantage_theoretical ~kdist ~related_contents:10
      ~prior_requests:3
  in
  let empirical =
    Attack.Correlation_attack.run ~grouping:Core.Grouping.By_content ~kdist
      ~related_contents:10 ~prior_requests:3 ~trials:2000 ()
  in
  check_close "closed form matches simulation" 0.03 theoretical
    empirical.Attack.Correlation_attack.adversary_accuracy

(* --- Interaction (conversation-detection) attack --- *)

let test_interaction_attack_predictable_names () =
  let r =
    Attack.Interaction_attack.run ~naming:Core.Interactive_session.Predictable
      ~trials:10 ~frames:8 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "conversation detected reliably (%.2f)" r.Attack.Interaction_attack.accuracy)
    true
    (r.Attack.Interaction_attack.accuracy > 0.9)

let test_interaction_attack_defeated_by_unpredictable_names () =
  let r =
    Attack.Interaction_attack.run
      ~naming:(Core.Interactive_session.Unpredictable "dh-secret")
      ~trials:10 ~frames:8 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "no advantage (%.2f)" r.Attack.Interaction_attack.accuracy)
    true
    (r.Attack.Interaction_attack.accuracy <= 0.6);
  (* The failure mode is symmetric blindness: the adversary can never
     name a frame, so it always answers Not_talking. *)
  Alcotest.(check int) "no false positives" 0 r.Attack.Interaction_attack.false_positives

let test_probe_conversation_silent () =
  let setup = Ndn.Network.conversation () in
  Alcotest.(check bool) "silent pair reads Not_talking" true
    (Attack.Interaction_attack.probe_conversation setup ()
    = Attack.Interaction_attack.Not_talking)

(* --- Countermeasure deployment (paper footnote 6) --- *)

let test_deployment_edge_defence_works () =
  let undefended = Attack.Deployment_experiment.run Attack.Deployment_experiment.No_defence ~trials:20 () in
  let edge = Attack.Deployment_experiment.run Attack.Deployment_experiment.Edge_only ~trials:20 () in
  Alcotest.(check bool)
    (Printf.sprintf "undefended broken (%.2f)" undefended.Attack.Deployment_experiment.attack_success)
    true
    (undefended.Attack.Deployment_experiment.attack_success > 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "edge defence collapses the attack (%.2f)" edge.Attack.Deployment_experiment.attack_success)
    true
    (edge.Attack.Deployment_experiment.attack_success < 0.75);
  (* Edge deployment leaves the remote consumer's core-cache benefit intact. *)
  Alcotest.(check bool) "remote hit latency unchanged" true
    (Float.abs
       (edge.Attack.Deployment_experiment.remote_hit_latency_ms
       -. undefended.Attack.Deployment_experiment.remote_hit_latency_ms)
    < 2.)

let test_deployment_core_only_is_worst_of_both () =
  let core = Attack.Deployment_experiment.run Attack.Deployment_experiment.Core_only ~trials:20 () in
  Alcotest.(check bool)
    (Printf.sprintf "attack still succeeds (%.2f)" core.Attack.Deployment_experiment.attack_success)
    true
    (core.Attack.Deployment_experiment.attack_success > 0.95);
  Alcotest.(check bool) "remote consumers lose the core cache" true
    (core.Attack.Deployment_experiment.remote_hit_latency_ms
    > 0.8 *. core.Attack.Deployment_experiment.remote_miss_latency_ms)

let test_deployment_everywhere_latency_cost () =
  let everywhere = Attack.Deployment_experiment.run Attack.Deployment_experiment.Everywhere ~trials:20 () in
  Alcotest.(check bool)
    (Printf.sprintf "attack collapsed (%.2f)" everywhere.Attack.Deployment_experiment.attack_success)
    true
    (everywhere.Attack.Deployment_experiment.attack_success < 0.75);
  Alcotest.(check bool) "but remote hits cost like misses" true
    (everywhere.Attack.Deployment_experiment.remote_hit_latency_ms
    > 0.8 *. everywhere.Attack.Deployment_experiment.remote_miss_latency_ms)


(* --- Popularity estimation attack --- *)

let test_popularity_exact_against_naive_like () =
  (* Constant threshold behaves like the naive scheme: count recovered. *)
  let r =
    Attack.Popularity_attack.run ~kdist:(Core.Kdist.Constant 6) ~true_count:4
      ~max_count:7 ~trials:50 ()
  in
  check_close "exact recovery" 1e-9 1. r.Attack.Popularity_attack.exact_rate;
  check_close "zero error" 1e-9 0. r.Attack.Popularity_attack.mean_abs_error

let test_popularity_blind_against_uniform () =
  let r =
    Attack.Popularity_attack.run ~kdist:(Core.Kdist.Uniform 60) ~true_count:4
      ~max_count:8 ~trials:100 ()
  in
  (* Residual uncertainty stays near the prior's 3.17 bits. *)
  Alcotest.(check bool)
    (Printf.sprintf "high residual entropy (%.2f bits)"
       r.Attack.Popularity_attack.mean_posterior_entropy_bits)
    true
    (r.Attack.Popularity_attack.mean_posterior_entropy_bits > 2.5);
  Alcotest.(check bool)
    (Printf.sprintf "substantial estimation error (%.2f)"
       r.Attack.Popularity_attack.mean_abs_error)
    true
    (r.Attack.Popularity_attack.mean_abs_error > 2.)

let test_popularity_leak_ordering () =
  let leak kdist =
    Attack.Popularity_attack.information_leak_bits ~kdist ~max_count:8 ~probes:70
  in
  let naive = leak (Core.Kdist.Constant 6) in
  let uniform = leak (Core.Kdist.Uniform 60) in
  let expo = leak (Core.Kdist.Truncated_geometric { alpha = 0.95; domain = 60 }) in
  Alcotest.(check bool)
    (Printf.sprintf "naive (%.2f) >> expo (%.2f) >= uniform-ish (%.2f)" naive expo uniform)
    true
    (naive > 2.5 && expo < 1.5 && uniform < 0.5)

(* --- property tests --- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"detector threshold separates training clusters" ~count:100
      QCheck.(pair (float_range 0. 5.) (float_range 10. 20.))
      (fun (lo, hi) ->
        let hit = Array.init 20 (fun i -> lo +. (0.01 *. float_of_int i)) in
        let miss = Array.init 20 (fun i -> hi +. (0.01 *. float_of_int i)) in
        let d = Attack.Detector.train ~hit_samples:hit ~miss_samples:miss in
        Attack.Detector.training_accuracy d >= 1. -. 1e-9);
    QCheck.Test.make ~name:"amplification formula in [p, 1]" ~count:200
      QCheck.(pair (float_range 0. 1.) (int_range 1 50))
      (fun (p, n) ->
        let v = Attack.Segment_attack.theoretical_success ~p ~segments:n in
        v >= p -. 1e-12 && v <= 1. +. 1e-12);
    QCheck.Test.make ~name:"counter attack exact for all priors <= k" ~count:100
      QCheck.(pair (int_range 0 12) (int_range 0 12))
      (fun (k, prior) ->
        QCheck.assume (prior <= k + 1);
        match Attack.Counter_attack.demonstrate ~k ~prior_requests:prior with
        | Some o -> o.Attack.Counter_attack.recovered_count = prior
        | None -> false);
    QCheck.Test.make ~name:"theoretical correlation advantage within [0.5, 1]" ~count:200
      QCheck.(triple (int_range 1 20) (int_range 1 50) (int_range 0 10))
      (fun (domain, m, prior) ->
        let v =
          Attack.Correlation_attack.advantage_theoretical
            ~kdist:(Core.Kdist.Uniform domain) ~related_contents:m
            ~prior_requests:prior
        in
        v >= 0.5 -. 1e-12 && v <= 1. +. 1e-12);
  ]

let () =
  Alcotest.run "attack"
    [
      ( "detector",
        [
          Alcotest.test_case "separable" `Quick test_detector_separable;
          Alcotest.test_case "flipped order" `Quick test_detector_flipped_order;
          Alcotest.test_case "no advantage on identical" `Slow
            test_detector_overlapping_accuracy_half;
          Alcotest.test_case "matches Bayes on gaussians" `Slow
            test_detector_gaussian_overlap_matches_bayes;
          Alcotest.test_case "empty rejected" `Quick test_detector_empty_rejected;
        ] );
      ( "probe",
        [
          Alcotest.test_case "baseline is hit" `Quick test_probe_baseline_is_cache_hit;
          Alcotest.test_case "two-probe decision" `Quick test_two_probe_decision;
        ] );
      ( "timing",
        [
          Alcotest.test_case "LAN distinguisher" `Slow test_timing_experiment_lan;
          Alcotest.test_case "producer overlap" `Slow test_timing_experiment_producer_overlap;
          Alcotest.test_case "countermeasure defeats it" `Slow
            test_timing_experiment_defeated_by_content_specific_delay;
        ] );
      ( "scope",
        [
          Alcotest.test_case "probe" `Quick test_scope_probe;
          Alcotest.test_case "census" `Quick test_scope_census;
        ] );
      ( "segments",
        [
          Alcotest.test_case "formula" `Quick test_segment_formula;
          Alcotest.test_case "monotone" `Quick test_segment_formula_monotone;
          Alcotest.test_case "errors" `Quick test_segment_formula_errors;
          Alcotest.test_case "empirical amplification" `Slow
            test_segment_amplification_empirical;
        ] );
      ( "counter",
        [
          Alcotest.test_case "exact recovery" `Quick test_counter_attack_exact_recovery;
          Alcotest.test_case "budget" `Quick test_counter_attack_budget;
          Alcotest.test_case "random-cache resists" `Quick
            test_counter_attack_fails_on_random_cache;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "ungrouped breaks" `Quick test_correlation_ungrouped_breaks;
          Alcotest.test_case "grouped resists" `Quick test_correlation_grouped_resists;
          Alcotest.test_case "content-id grouping" `Quick
            test_correlation_content_id_grouping_equivalent;
          Alcotest.test_case "theory matches empirics" `Quick
            test_correlation_theoretical_matches_empirical;
        ] );
      ( "interaction",
        [
          Alcotest.test_case "predictable names detected" `Slow
            test_interaction_attack_predictable_names;
          Alcotest.test_case "unpredictable names blind" `Slow
            test_interaction_attack_defeated_by_unpredictable_names;
          Alcotest.test_case "silent pair" `Quick test_probe_conversation_silent;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "edge defence works" `Slow test_deployment_edge_defence_works;
          Alcotest.test_case "core-only worst of both" `Slow
            test_deployment_core_only_is_worst_of_both;
          Alcotest.test_case "everywhere latency cost" `Slow
            test_deployment_everywhere_latency_cost;
        ] );
      ( "popularity",
        [
          Alcotest.test_case "exact against naive" `Quick
            test_popularity_exact_against_naive_like;
          Alcotest.test_case "blind against uniform" `Quick
            test_popularity_blind_against_uniform;
          Alcotest.test_case "leak ordering" `Quick test_popularity_leak_ordering;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
