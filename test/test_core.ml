(* Tests for the paper's core contribution: threshold distributions,
   Algorithm 1, marking rules, delays, grouping, unpredictable names,
   policies, and the privacy-aware router. *)

let name = Ndn.Name.of_string

let check_close msg tol expected actual = Alcotest.(check (float tol)) msg expected actual

let output_testable =
  Alcotest.testable Core.Random_cache.pp_output Core.Random_cache.output_equal

(* --- Kdist --- *)

let test_kdist_uniform_bounds () =
  let rng = Sim.Rng.create 1 in
  let kd = Core.Kdist.Uniform 10 in
  for _ = 1 to 1000 do
    let v = Core.Kdist.sample kd rng in
    if v < 0 || v >= 10 then Alcotest.failf "uniform sample out of range: %d" v
  done

let test_kdist_geometric_bounds_and_law () =
  let rng = Sim.Rng.create 2 in
  let kd = Core.Kdist.Truncated_geometric { alpha = 0.8; domain = 12 } in
  let counts = Array.make 12 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Core.Kdist.sample kd rng in
    if v < 0 || v >= 12 then Alcotest.failf "geometric sample out of range: %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  let law = Core.Kdist.to_dist kd in
  Array.iteri
    (fun v c ->
      check_close
        (Printf.sprintf "empirical matches law at %d" v)
        0.01
        (Privacy.Dist.prob law v)
        (float_of_int c /. float_of_int n))
    counts

let test_kdist_constant () =
  let rng = Sim.Rng.create 3 in
  Alcotest.(check int) "constant" 7 (Core.Kdist.sample (Core.Kdist.Constant 7) rng)

let test_kdist_weighted () =
  let rng = Sim.Rng.create 4 in
  let kd = Core.Kdist.Weighted [ (1, 1.); (5, 3.) ] in
  let fives = ref 0 in
  for _ = 1 to 10_000 do
    match Core.Kdist.sample kd rng with
    | 5 -> incr fives
    | 1 -> ()
    | v -> Alcotest.failf "unexpected sample %d" v
  done;
  check_close "weights respected" 0.02 0.75 (float_of_int !fives /. 10_000.)

let test_kdist_constructors_match_theorems () =
  (match Core.Kdist.uniform_for ~k:5 ~delta:0.05 with
  | Core.Kdist.Uniform domain -> Alcotest.(check int) "K = 2k/delta" 200 domain
  | _ -> Alcotest.fail "expected uniform");
  match Core.Kdist.exponential_for ~k:5 ~eps:0.04 ~delta:0.05 with
  | Some (Core.Kdist.Truncated_geometric { alpha; domain }) ->
    check_close "alpha = e^{-eps/k}" 1e-12 (exp (-0.04 /. 5.)) alpha;
    let d = Privacy.Theorems.Exponential.delta ~k:5 ~alpha ~domain in
    Alcotest.(check bool) "delta achieved" true (d <= 0.05 +. 1e-9)
  | _ -> Alcotest.fail "expected truncated geometric"

let test_kdist_exponential_infeasible () =
  (* eps so large that 1 - alpha^k > delta. *)
  Alcotest.(check bool) "infeasible returns None" true
    (Core.Kdist.exponential_for ~k:5 ~eps:2. ~delta:0.05 = None)

let test_kdist_mean () =
  check_close "uniform mean" 1e-9 4.5 (Core.Kdist.mean (Core.Kdist.Uniform 10));
  check_close "constant mean" 1e-9 7. (Core.Kdist.mean (Core.Kdist.Constant 7))

(* --- Random_cache (Algorithm 1) --- *)

(* A threshold law that cannot be sampled is refused when the cache is
   built, not at its first request. *)
let check_rejects kdist expected =
  Alcotest.check_raises (Format.asprintf "%a" Core.Kdist.pp kdist)
    (Invalid_argument ("Random_cache.create: " ^ expected))
    (fun () -> ignore (Core.Random_cache.create ~kdist ~rng:(Sim.Rng.create 1) ()))

let test_rc_rejects_negative_constant () =
  check_rejects (Core.Kdist.Constant (-1)) "Constant k with k < 0"

let test_rc_rejects_empty_uniform () =
  check_rejects (Core.Kdist.Uniform 0) "Uniform d with d <= 0";
  check_rejects (Core.Kdist.Uniform (-5)) "Uniform d with d <= 0"

let test_rc_rejects_empty_geometric () =
  check_rejects
    (Core.Kdist.Truncated_geometric { alpha = 0.9; domain = 0 })
    "Truncated_geometric domain <= 0"

let test_rc_rejects_empty_weighted () =
  check_rejects (Core.Kdist.Weighted []) "empty Weighted distribution"

let test_rc_rejects_weightless_weighted () =
  check_rejects
    (Core.Kdist.Weighted [ (1, 0.); (2, 0.) ])
    "Weighted total weight is not positive";
  check_rejects
    (Core.Kdist.Weighted [ (1, 1.); (2, -3.) ])
    "Weighted total weight is not positive";
  check_rejects (Core.Kdist.Weighted [ (1, Float.nan) ]) "Weighted total weight is not positive"

let test_rc_first_request_always_miss () =
  let rng = Sim.Rng.create 5 in
  let rc = Core.Random_cache.create ~kdist:(Core.Kdist.Uniform 10) ~rng () in
  for i = 0 to 49 do
    Alcotest.check output_testable "first request misses" Core.Random_cache.Miss
      (Core.Random_cache.on_request rc (name (Printf.sprintf "/c/%d" i)))
  done

let test_rc_output_is_miss_run_then_hits () =
  let rng = Sim.Rng.create 6 in
  let rc = Core.Random_cache.create ~kdist:(Core.Kdist.Uniform 8) ~rng () in
  for content = 0 to 99 do
    let key = name (Printf.sprintf "/c/%d" content) in
    let outputs = List.init 20 (fun _ -> Core.Random_cache.on_request rc key) in
    (* no Miss may follow a Hit *)
    let rec well_formed seen_hit = function
      | [] -> true
      | Core.Random_cache.Hit :: rest -> well_formed true rest
      | Core.Random_cache.Miss :: rest -> (not seen_hit) && well_formed false rest
    in
    Alcotest.(check bool) "miss^j hit^*" true (well_formed false outputs)
  done

let test_rc_threshold_controls_misses () =
  let rng = Sim.Rng.create 7 in
  let rc = Core.Random_cache.create ~kdist:(Core.Kdist.Constant 3) ~rng () in
  let key = name "/c/x" in
  let outputs = List.init 6 (fun _ -> Core.Random_cache.on_request rc key) in
  Alcotest.(check (list output_testable)) "k=3: 4 misses then hits"
    Core.Random_cache.[ Miss; Miss; Miss; Miss; Hit; Hit ]
    outputs;
  Alcotest.(check (option int)) "threshold recorded" (Some 3)
    (Core.Random_cache.threshold rc key);
  Alcotest.(check int) "counter" 5 (Core.Random_cache.request_count rc key)

let test_rc_keys_independent () =
  let rng = Sim.Rng.create 8 in
  let rc = Core.Random_cache.create ~kdist:(Core.Kdist.Constant 0) ~rng () in
  ignore (Core.Random_cache.on_request rc (name "/a"));
  (* /b unaffected by /a's state *)
  Alcotest.check output_testable "fresh key misses" Core.Random_cache.Miss
    (Core.Random_cache.on_request rc (name "/b"));
  Alcotest.check output_testable "warmed key hits" Core.Random_cache.Hit
    (Core.Random_cache.on_request rc (name "/a"));
  Alcotest.(check int) "tracked" 2 (Core.Random_cache.tracked rc)

let test_rc_forget () =
  let rng = Sim.Rng.create 9 in
  let rc = Core.Random_cache.create ~kdist:(Core.Kdist.Constant 0) ~rng () in
  ignore (Core.Random_cache.on_request rc (name "/a"));
  ignore (Core.Random_cache.on_request rc (name "/a"));
  Core.Random_cache.forget rc (name "/a");
  Alcotest.check output_testable "forgotten key restarts at miss"
    Core.Random_cache.Miss
    (Core.Random_cache.on_request rc (name "/a"))

let test_rc_miss_counts_match_theory () =
  (* Empirical E[M(c)] over many contents matches the exact formula. *)
  let rng = Sim.Rng.create 10 in
  let domain = 20 in
  let rc = Core.Random_cache.create ~kdist:(Core.Kdist.Uniform domain) ~rng () in
  let c = 15 in
  let contents = 20_000 in
  let total_misses = ref 0 in
  for i = 0 to contents - 1 do
    let key = name (Printf.sprintf "/c/%d" i) in
    for _ = 1 to c do
      match Core.Random_cache.on_request rc key with
      | Core.Random_cache.Miss -> incr total_misses
      | Core.Random_cache.Hit -> ()
    done
  done;
  check_close "empirical E[M(c)]" 0.05
    (Privacy.Theorems.Uniform.expected_misses_exact ~c ~domain)
    (float_of_int !total_misses /. float_of_int contents)

(* --- Naive scheme + its insecurity --- *)

let test_naive_deterministic_threshold () =
  let naive =
    Core.Random_cache.create ~kdist:(Core.Kdist.Constant 2) ~rng:(Sim.Rng.create 0) ()
  in
  let key = name "/c" in
  let outputs = List.init 5 (fun _ -> Core.Random_cache.on_request naive key) in
  Alcotest.(check (list output_testable)) "k=2: 3 misses then hits"
    Core.Random_cache.[ Miss; Miss; Miss; Hit; Hit ]
    outputs

(* --- Marking --- *)

let test_marking_producer_dominates () =
  let m = Core.Marking.create () in
  (* producer-private stays private even for non-private interests *)
  Alcotest.(check bool) "private" true
    (Core.Marking.classify m ~name:(name "/a") ~producer_private:true
       ~consumer_private:false
    = Core.Marking.Private);
  (* ... and repeatedly (no trigger) *)
  Alcotest.(check bool) "still private" true
    (Core.Marking.classify m ~name:(name "/a") ~producer_private:true
       ~consumer_private:false
    = Core.Marking.Private)

let test_marking_trigger_rule () =
  let m = Core.Marking.create () in
  let n = name "/content" in
  (* consumer-private first: private *)
  Alcotest.(check bool) "consumer privacy honored" true
    (Core.Marking.classify m ~name:n ~producer_private:false ~consumer_private:true
    = Core.Marking.Private);
  (* first non-private interest triggers *)
  Alcotest.(check bool) "non-private request is public" true
    (Core.Marking.classify m ~name:n ~producer_private:false ~consumer_private:false
    = Core.Marking.Public);
  Alcotest.(check bool) "trigger recorded" true (Core.Marking.is_triggered m n);
  (* after the trigger, even consumer-private requests are public *)
  Alcotest.(check bool) "trigger sticks" true
    (Core.Marking.classify m ~name:n ~producer_private:false ~consumer_private:true
    = Core.Marking.Public)

let test_marking_trigger_cleared_on_eviction () =
  let m = Core.Marking.create () in
  let n = name "/content" in
  ignore (Core.Marking.classify m ~name:n ~producer_private:false ~consumer_private:false);
  Core.Marking.on_evicted m n;
  Alcotest.(check bool) "cleared" false (Core.Marking.is_triggered m n);
  Alcotest.(check bool) "consumer privacy honored again" true
    (Core.Marking.classify m ~name:n ~producer_private:false ~consumer_private:true
    = Core.Marking.Private)

let test_marking_reserved_name_component () =
  Alcotest.(check bool) "/a/b/private marked" true
    (Core.Marking.name_marked_private (name "/a/b/private"));
  Alcotest.(check bool) "/a/private/b not last" false
    (Core.Marking.name_marked_private (name "/a/private/b"));
  let m = Core.Marking.create () in
  Alcotest.(check bool) "reserved name forces private" true
    (Core.Marking.classify m ~name:(name "/a/b/private") ~producer_private:false
       ~consumer_private:false
    = Core.Marking.Private)

(* --- Delay --- *)

let test_delay_constant () =
  let d = Core.Delay.Constant 50. in
  check_close "hit delay" 1e-9 50. (Core.Delay.hit_delay d ~fetch_delay:10. ~hits_so_far:3);
  check_close "miss padding" 1e-9 20. (Core.Delay.miss_padding d ~actual_delay:30.);
  check_close "no negative padding" 1e-9 0. (Core.Delay.miss_padding d ~actual_delay:80.)

let test_delay_content_specific () =
  let d = Core.Delay.Content_specific in
  check_close "replays gamma_C" 1e-9 12.5
    (Core.Delay.hit_delay d ~fetch_delay:12.5 ~hits_so_far:100);
  check_close "no padding" 1e-9 0. (Core.Delay.miss_padding d ~actual_delay:5.)

let test_delay_dynamic () =
  let d = Core.Delay.Dynamic { floor = 2.; half_life_requests = 10. } in
  check_close "starts at gamma_C" 1e-9 40.
    (Core.Delay.hit_delay d ~fetch_delay:40. ~hits_so_far:0);
  check_close "halves per half-life" 1e-9 20.
    (Core.Delay.hit_delay d ~fetch_delay:40. ~hits_so_far:10);
  check_close "never below floor" 1e-9 2.
    (Core.Delay.hit_delay d ~fetch_delay:40. ~hits_so_far:1000)

(* --- Grouping --- *)

let test_grouping_by_content () =
  let registry = Ndn.Name.Tbl.create 4 in
  Alcotest.(check bool) "identity" true
    (Ndn.Name.equal
       (Core.Grouping.key Core.Grouping.By_content ~registry (name "/a/b/c"))
       (name "/a/b/c"))

let test_grouping_by_namespace () =
  let registry = Ndn.Name.Tbl.create 4 in
  let key = Core.Grouping.key (Core.Grouping.By_namespace 2) ~registry in
  Alcotest.(check bool) "same namespace same key" true
    (Ndn.Name.equal (key (name "/yt/alice/v1/s1")) (key (name "/yt/alice/v2/s9")));
  Alcotest.(check bool) "different namespace different key" false
    (Ndn.Name.equal (key (name "/yt/alice/v1")) (key (name "/yt/bob/v1")))

let test_grouping_by_content_id () =
  let registry = Ndn.Name.Tbl.create 4 in
  Core.Grouping.register_id ~registry ~name:(name "/a/1") ~id:"g1";
  Core.Grouping.register_id ~registry ~name:(name "/b/2") ~id:"g1";
  let key = Core.Grouping.key Core.Grouping.By_content_id ~registry in
  Alcotest.(check bool) "registered names share key" true
    (Ndn.Name.equal (key (name "/a/1")) (key (name "/b/2")));
  Alcotest.(check bool) "unregistered falls back to name" true
    (Ndn.Name.equal (key (name "/c/3")) (name "/c/3"))

(* --- Unpredictable names --- *)

let test_unpredictable_names_agree () =
  let mk () =
    Core.Unpredictable_names.create ~secret:"shared" ~prefix:(name "/alice/skype/0")
  in
  let alice = mk () and bob = mk () in
  for seq = 0 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "seq %d agrees" seq)
      true
      (Ndn.Name.equal
         (Core.Unpredictable_names.name_of_seq alice ~seq)
         (Core.Unpredictable_names.name_of_seq bob ~seq))
  done

let test_unpredictable_names_secret_dependent () =
  let a = Core.Unpredictable_names.create ~secret:"s1" ~prefix:(name "/p") in
  let b = Core.Unpredictable_names.create ~secret:"s2" ~prefix:(name "/p") in
  Alcotest.(check bool) "different secrets differ" false
    (Ndn.Name.equal
       (Core.Unpredictable_names.name_of_seq a ~seq:0)
       (Core.Unpredictable_names.name_of_seq b ~seq:0))

let test_unpredictable_names_verify () =
  let s = Core.Unpredictable_names.create ~secret:"sec" ~prefix:(name "/p/call") in
  let n = Core.Unpredictable_names.name_of_seq s ~seq:5 in
  Alcotest.(check (option int)) "authentic name verifies" (Some 5)
    (Core.Unpredictable_names.verify_name s n);
  Alcotest.(check (option int)) "forged rand rejected" None
    (Core.Unpredictable_names.verify_name s (name "/p/call/5/deadbeefdeadbeefdead"));
  Alcotest.(check (option int)) "wrong shape rejected" None
    (Core.Unpredictable_names.verify_name s (name "/p/call/5"));
  Alcotest.(check (option int)) "other namespace rejected" None
    (Core.Unpredictable_names.verify_name s (name "/q/call/5/abc"))

let test_unpredictable_names_make_data () =
  let s = Core.Unpredictable_names.create ~secret:"sec" ~prefix:(name "/p/call") in
  let d =
    Core.Unpredictable_names.make_data s ~producer:"alice" ~key:"k" ~payload:"frame"
      ~seq:3 ()
  in
  Alcotest.(check bool) "strict match set" true d.Ndn.Data.strict_match;
  Alcotest.(check bool) "short freshness" true (d.Ndn.Data.freshness_ms <> None);
  Alcotest.(check (option int)) "name verifies" (Some 3)
    (Core.Unpredictable_names.verify_name s d.Ndn.Data.name)

let test_unpredictable_entropy () =
  Alcotest.(check bool) "at least 64 bits" true
    (Core.Unpredictable_names.guess_space_bits >= 64)

(* --- Policy (replay semantics) --- *)

let mk_policy kind = Core.Policy.create ~rng:(Sim.Rng.create 11) kind

let test_policy_no_privacy () =
  let p = mk_policy Core.Policy.No_privacy in
  Alcotest.check output_testable "cached -> hit" Core.Random_cache.Hit
    (Core.Policy.on_request p ~name:(name "/c") ~is_private:true ~cached:true);
  Alcotest.check output_testable "uncached -> miss" Core.Random_cache.Miss
    (Core.Policy.on_request p ~name:(name "/c") ~is_private:false ~cached:false)

let test_policy_always_delay () =
  let p = mk_policy Core.Policy.Always_delay in
  Alcotest.check output_testable "private cached looks like miss" Core.Random_cache.Miss
    (Core.Policy.on_request p ~name:(name "/c") ~is_private:true ~cached:true);
  Alcotest.check output_testable "public cached hits" Core.Random_cache.Hit
    (Core.Policy.on_request p ~name:(name "/c") ~is_private:false ~cached:true)

let test_policy_random_cache_private () =
  let p = mk_policy (Core.Policy.Random_cache (Core.Kdist.Constant 1)) in
  let n = name "/c" in
  (* k=1: requests 1 and 2 miss, then hits. *)
  Alcotest.check output_testable "r1" Core.Random_cache.Miss
    (Core.Policy.on_request p ~name:n ~is_private:true ~cached:true);
  Alcotest.check output_testable "r2" Core.Random_cache.Miss
    (Core.Policy.on_request p ~name:n ~is_private:true ~cached:true);
  Alcotest.check output_testable "r3" Core.Random_cache.Hit
    (Core.Policy.on_request p ~name:n ~is_private:true ~cached:true)

let test_policy_random_cache_public_bypasses () =
  let p = mk_policy (Core.Policy.Random_cache (Core.Kdist.Constant 100)) in
  Alcotest.check output_testable "public content unaffected by algorithm"
    Core.Random_cache.Hit
    (Core.Policy.on_request p ~name:(name "/c") ~is_private:false ~cached:true)

let test_policy_real_miss_never_hit () =
  let p = mk_policy (Core.Policy.Random_cache (Core.Kdist.Constant 0)) in
  let n = name "/c" in
  (* advance past threshold *)
  ignore (Core.Policy.on_request p ~name:n ~is_private:true ~cached:true);
  ignore (Core.Policy.on_request p ~name:n ~is_private:true ~cached:true);
  (* evicted now: real miss must show as miss even though c > k *)
  Alcotest.check output_testable "real miss dominates" Core.Random_cache.Miss
    (Core.Policy.on_request p ~name:n ~is_private:true ~cached:false)

let test_policy_grouping_shares_state () =
  let p =
    Core.Policy.create
      ~grouping:(Core.Grouping.By_namespace 1)
      ~rng:(Sim.Rng.create 12)
      (Core.Policy.Random_cache (Core.Kdist.Constant 0))
  in
  (* k=0: second request to the same group hits. *)
  ignore (Core.Policy.on_request p ~name:(name "/g/1") ~is_private:true ~cached:true);
  Alcotest.check output_testable "sibling shares the threshold" Core.Random_cache.Hit
    (Core.Policy.on_request p ~name:(name "/g/2") ~is_private:true ~cached:true)

let test_policy_labels () =
  Alcotest.(check string) "no privacy" "No Privacy"
    (Core.Policy.label (mk_policy Core.Policy.No_privacy));
  Alcotest.(check string) "always delay" "Always Delay Private Content"
    (Core.Policy.label (mk_policy Core.Policy.Always_delay));
  Alcotest.(check string) "uniform" "Uniform-Random-Cache"
    (Core.Policy.label (mk_policy (Core.Policy.Random_cache (Core.Kdist.Uniform 10))));
  Alcotest.(check string) "exponential" "Exponential-Random-Cache"
    (Core.Policy.label
       (mk_policy
          (Core.Policy.Random_cache
             (Core.Kdist.Truncated_geometric { alpha = 0.9; domain = 10 }))))

(* --- Private_router in a live network --- *)

let make_private_lan ?(cm = Core.Private_router.No_countermeasure) () =
  let producer_config =
    { Ndn.Network.default_producer_config with producer_private = true }
  in
  let setup = Ndn.Network.lan ~producer:producer_config () in
  let handle =
    Core.Private_router.attach setup.Ndn.Network.router
      ~rng:(Sim.Rng.create 13) cm
  in
  (setup, handle)

let test_private_router_no_cm_leaks () =
  let setup, _ = make_private_lan () in
  let n = name "/prod/secret" in
  let miss = Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user n in
  let hit = Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary n in
  match (miss, hit) with
  | Some m, Some h -> Alcotest.(check bool) "hit clearly faster" true (h < m -. 2.)
  | _ -> Alcotest.fail "timeout"

let test_private_router_content_specific_delay_hides_hits () =
  let setup, handle =
    make_private_lan ~cm:(Core.Private_router.Delay_private Core.Delay.Content_specific) ()
  in
  let n = name "/prod/secret" in
  let miss = Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user n in
  let hit = Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary n in
  (match (miss, hit) with
  | Some m, Some h ->
    (* The artificial delay replays gamma_C: the hit now looks like a miss. *)
    Alcotest.(check bool)
      (Printf.sprintf "hit %.2f within miss %.2f +/- 2.5ms" h m)
      true
      (Float.abs (h -. m) < 2.5)
  | _ -> Alcotest.fail "timeout");
  let stats = Core.Private_router.stats handle in
  Alcotest.(check int) "hit was hidden" 1 stats.Core.Private_router.private_hits_hidden

let test_private_router_constant_delay_pads_misses () =
  let gamma = 40. in
  let setup, handle =
    make_private_lan ~cm:(Core.Private_router.Delay_private (Core.Delay.Constant gamma)) ()
  in
  let n = name "/prod/secret" in
  (* Private miss: padded up to ~gamma. *)
  (match Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user n with
  | Some rtt -> Alcotest.(check bool) "miss padded to >= gamma" true (rtt >= gamma)
  | None -> Alcotest.fail "timeout");
  (* Private hit: delayed by gamma. *)
  (match Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary n with
  | Some rtt -> Alcotest.(check bool) "hit delayed to >= gamma" true (rtt >= gamma)
  | None -> Alcotest.fail "timeout");
  let stats = Core.Private_router.stats handle in
  Alcotest.(check bool) "padding happened" true (stats.Core.Private_router.misses_padded >= 1)

let test_private_router_public_content_fast () =
  (* Countermeasure on, but content not marked private: hits stay fast. *)
  let setup = Ndn.Network.lan () in
  let handle =
    Core.Private_router.attach setup.Ndn.Network.router ~rng:(Sim.Rng.create 14)
      (Core.Private_router.Delay_private (Core.Delay.Constant 40.))
  in
  let n = name "/prod/public" in
  ignore (Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user n);
  (match Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary n with
  | Some rtt -> Alcotest.(check bool) "public hit fast" true (rtt < 10.)
  | None -> Alcotest.fail "timeout");
  let stats = Core.Private_router.stats handle in
  Alcotest.(check int) "public hit counted" 1 stats.Core.Private_router.public_hits

let test_private_router_random_cache_mimic () =
  let setup, handle =
    make_private_lan
      ~cm:
        (Core.Private_router.Random_cache_mimic
           { kdist = Core.Kdist.Constant 2; grouping = Core.Grouping.By_content })
      ()
  in
  let n = name "/prod/secret" in
  ignore (Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user n);
  (* k_C = 2: Algorithm 1 answers the first 3 requests it sees (the
     cache hits at R) as misses, then reveals. *)
  let rtts =
    List.init 4 (fun _ ->
        Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary n)
  in
  (match rtts with
  | [ Some r2; Some r3; Some r4; Some r5 ] ->
    Alcotest.(check bool) "disguised probes slow" true (r2 > 4. && r3 > 4. && r4 > 4.);
    Alcotest.(check bool) "eventually served fast" true (r5 < 4.)
  | _ -> Alcotest.fail "timeout");
  let stats = Core.Private_router.stats handle in
  Alcotest.(check int) "three hidden" 3 stats.Core.Private_router.private_hits_hidden;
  Alcotest.(check int) "one served" 1 stats.Core.Private_router.private_hits_served

let test_private_router_defeats_scope_oracle () =
  (* Section III's scope=2 probe must learn nothing about hidden hits:
     the defended router treats scope-limited interests for private
     cached content as true misses, which then die at the scope
     boundary. *)
  let setup, _ =
    make_private_lan ~cm:(Core.Private_router.Delay_private Core.Delay.Content_specific) ()
  in
  let n = name "/prod/secret" in
  ignore (Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.user n);
  Alcotest.(check bool) "scope probe of hidden hit starves" true
    (Attack.Scope_probe.probe setup n = Attack.Scope_probe.Not_cached);
  (* An unlimited-scope probe still gets the (delayed) content. *)
  Alcotest.(check bool) "normal interest still served" true
    (Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from:setup.Ndn.Network.adversary n
    <> None)

(* --- Interactive sessions (Section V-A traffic class) --- *)

let test_interactive_session_predictable_completes () =
  let setup = Ndn.Network.conversation () in
  let session =
    Core.Interactive_session.start setup ~naming:Core.Interactive_session.Predictable
      ~frames:12 ()
  in
  Ndn.Network.run setup.Ndn.Network.cnet;
  Alcotest.(check bool) "call completed" true (Core.Interactive_session.complete session);
  Alcotest.(check (pair int int)) "both directions" (12, 12)
    (Core.Interactive_session.frames_delivered session);
  Alcotest.(check bool) "plausible frame rtt" true
    (Core.Interactive_session.mean_frame_rtt session > 0.
    && Core.Interactive_session.mean_frame_rtt session < 20.)

(* The cadence is keyed per side, so a call split across shards plays
   out exactly as on one. *)
let test_interactive_session_shard_invariant () =
  let call ~shards =
    let setup = Ndn.Network.conversation ~shards () in
    let session =
      Core.Interactive_session.start setup
        ~naming:Core.Interactive_session.Predictable ~frames:12 ()
    in
    Ndn.Network.run setup.Ndn.Network.cnet;
    ( setup,
      Core.Interactive_session.frames_delivered session,
      Core.Interactive_session.mean_frame_rtt session )
  in
  let _, frames1, rtt1 = call ~shards:1 in
  let setup2, frames2, rtt2 = call ~shards:2 in
  Alcotest.(check bool) "alice and bob on different shards" true
    (Ndn.Node.shard setup2.Ndn.Network.alice
    <> Ndn.Node.shard setup2.Ndn.Network.bob);
  Alcotest.(check (pair int int)) "frames, K = 2 vs 1" frames1 frames2;
  Alcotest.(check (float 0.)) "mean frame rtt, K = 2 vs 1" rtt1 rtt2

let test_interactive_session_unpredictable_completes () =
  let setup = Ndn.Network.conversation () in
  let session =
    Core.Interactive_session.start setup
      ~naming:(Core.Interactive_session.Unpredictable "secret") ~frames:8 ()
  in
  Ndn.Network.run setup.Ndn.Network.cnet;
  Alcotest.(check bool) "call completed" true (Core.Interactive_session.complete session)

let test_interactive_session_directions_use_distinct_names () =
  let setup = Ndn.Network.conversation () in
  let session =
    Core.Interactive_session.start setup
      ~naming:(Core.Interactive_session.Unpredictable "secret") ~frames:1 ()
  in
  let a = Core.Interactive_session.frame_name session `Alice ~seq:0 in
  let b = Core.Interactive_session.frame_name session `Bob ~seq:0 in
  Alcotest.(check bool) "distinct per direction" false (Ndn.Name.equal a b);
  Alcotest.(check bool) "alice's frame under alice's prefix" true
    (Ndn.Name.is_strict_prefix ~prefix:setup.Ndn.Network.alice_prefix a)

let test_interactive_frames_cached_at_router () =
  let setup = Ndn.Network.conversation () in
  let session =
    Core.Interactive_session.start setup ~naming:Core.Interactive_session.Predictable
      ~frames:4 ()
  in
  Ndn.Network.run setup.Ndn.Network.cnet;
  (* Frames of both parties pass through and are cached by R - the very
     state the interaction attack probes. *)
  List.iter
    (fun who ->
      let n = Core.Interactive_session.frame_name session who ~seq:2 in
      Alcotest.(check bool) "frame cached at router" true
        (Ndn.Content_store.mem (Ndn.Node.content_store setup.Ndn.Network.shared_router) n))
    [ `Alice; `Bob ]

(* --- content-id auto-grouping through Private_router --- *)

let test_private_router_auto_registers_content_id () =
  let setup = Ndn.Network.lan () in
  (* Producer marks two distinct names with one content id, private. *)
  let prefix = name "/prod/album" in
  Ndn.Node.add_producer setup.Ndn.Network.producer_host ~prefix (fun interest ->
      Some
        (Ndn.Data.create ~producer_private:true ~content_id:"album-7" ~producer:"P"
           ~key:setup.Ndn.Network.producer_key ~payload:"img"
           interest.Ndn.Interest.name));
  let handle =
    Core.Private_router.attach setup.Ndn.Network.router ~rng:(Sim.Rng.create 5)
      (Core.Private_router.Random_cache_mimic
         {
           kdist = Core.Kdist.Constant 1;
           grouping = Core.Grouping.By_content_id;
         })
  in
  ignore handle;
  let fetch from n = Ndn.Network.fetch_rtt setup.Ndn.Network.net ~from n in
  (* Warm both photos (the producer's content id binds them together). *)
  ignore (fetch setup.Ndn.Network.user (name "/prod/album/photo1"));
  ignore (fetch setup.Ndn.Network.user (name "/prod/album/photo2"));
  (* Adversary probes photo1 twice: group threshold k=1 means the
     group's Algorithm-1 run hides the first TWO tracked requests.
     Probing photo2 afterwards must NOT restart the run - the group
     shares the counter, so its disguise budget is already consumed. *)
  let r1 = Option.get (fetch setup.Ndn.Network.adversary (name "/prod/album/photo1")) in
  let r2 = Option.get (fetch setup.Ndn.Network.adversary (name "/prod/album/photo1")) in
  let r3 = Option.get (fetch setup.Ndn.Network.adversary (name "/prod/album/photo2")) in
  Alcotest.(check bool)
    (Printf.sprintf "first two probes disguised (%.1f, %.1f)" r1 r2)
    true
    (r1 > 4. && r2 > 4.);
  Alcotest.(check bool)
    (Printf.sprintf "sibling shares the exhausted group budget (%.1f)" r3)
    true (r3 < 4.)

(* --- property tests --- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"kdist samples live in the law's support" ~count:200
      QCheck.(pair small_int (int_range 1 30))
      (fun (seed, domain) ->
        let rng = Sim.Rng.create seed in
        let kd = Core.Kdist.Truncated_geometric { alpha = 0.85; domain } in
        let v = Core.Kdist.sample kd rng in
        Privacy.Dist.prob (Core.Kdist.to_dist kd) v > 0.);
    QCheck.Test.make ~name:"algorithm 1 outputs are miss-run then hit-run" ~count:200
      QCheck.(triple small_int (int_range 1 20) (int_range 1 30))
      (fun (seed, domain, probes) ->
        let rng = Sim.Rng.create seed in
        let rc = Core.Random_cache.create ~kdist:(Core.Kdist.Uniform domain) ~rng () in
        let key = name "/x" in
        let outputs = List.init probes (fun _ -> Core.Random_cache.on_request rc key) in
        let rec ok seen_hit = function
          | [] -> true
          | Core.Random_cache.Hit :: r -> ok true r
          | Core.Random_cache.Miss :: r -> (not seen_hit) && ok false r
        in
        ok false outputs);
    QCheck.Test.make ~name:"misses = min(k_C+1, probes) for fresh content" ~count:200
      QCheck.(triple small_int (int_range 1 20) (int_range 1 40))
      (fun (seed, domain, probes) ->
        let rng = Sim.Rng.create seed in
        let rc = Core.Random_cache.create ~kdist:(Core.Kdist.Uniform domain) ~rng () in
        let key = name "/x" in
        let misses = ref 0 in
        for _ = 1 to probes do
          if Core.Random_cache.on_request rc key = Core.Random_cache.Miss then incr misses
        done;
        match Core.Random_cache.threshold rc key with
        | Some k -> !misses = min (k + 1) probes
        | None -> false);
    QCheck.Test.make ~name:"marking: producer-private is always private" ~count:200
      QCheck.(pair bool bool)
      (fun (consumer_private, trigger_first) ->
        let m = Core.Marking.create () in
        let n = name "/x" in
        if trigger_first then
          ignore
            (Core.Marking.classify m ~name:n ~producer_private:false
               ~consumer_private:false);
        Core.Marking.classify m ~name:n ~producer_private:true ~consumer_private
        = Core.Marking.Private);
    QCheck.Test.make ~name:"delay: dynamic never below floor" ~count:200
      QCheck.(triple (float_range 0. 100.) (float_range 0.1 100.) (int_bound 10_000))
      (fun (floor, fetch_delay, hits) ->
        Core.Delay.hit_delay
          (Core.Delay.Dynamic { floor; half_life_requests = 10. })
          ~fetch_delay ~hits_so_far:hits
        >= floor -. 1e-9);
    QCheck.Test.make ~name:"unpredictable names verify iff authentic" ~count:200
      QCheck.(pair (string_of_size Gen.(int_range 1 10)) (int_bound 1000))
      (fun (secret, seq) ->
        let s =
          Core.Unpredictable_names.create ~secret ~prefix:(name "/session/a")
        in
        Core.Unpredictable_names.verify_name s
          (Core.Unpredictable_names.name_of_seq s ~seq)
        = Some seq);
    QCheck.Test.make ~name:"policy: uncached requests never report hits" ~count:200
      QCheck.(pair small_int bool)
      (fun (seed, is_private) ->
        let p =
          Core.Policy.create ~rng:(Sim.Rng.create seed)
            (Core.Policy.Random_cache (Core.Kdist.Uniform 5))
        in
        let n = name "/x" in
        (* advance the counter arbitrarily *)
        for _ = 1 to 10 do
          ignore (Core.Policy.on_request p ~name:n ~is_private ~cached:true)
        done;
        Core.Policy.on_request p ~name:n ~is_private ~cached:false
        = Core.Random_cache.Miss);
  ]

let () =
  Alcotest.run "core"
    [
      ( "kdist",
        [
          Alcotest.test_case "uniform bounds" `Quick test_kdist_uniform_bounds;
          Alcotest.test_case "geometric law" `Slow test_kdist_geometric_bounds_and_law;
          Alcotest.test_case "constant" `Quick test_kdist_constant;
          Alcotest.test_case "weighted" `Quick test_kdist_weighted;
          Alcotest.test_case "theorem constructors" `Quick
            test_kdist_constructors_match_theorems;
          Alcotest.test_case "exponential infeasible" `Quick test_kdist_exponential_infeasible;
          Alcotest.test_case "mean" `Quick test_kdist_mean;
        ] );
      ( "random_cache",
        [
          Alcotest.test_case "first request misses" `Quick test_rc_first_request_always_miss;
          Alcotest.test_case "miss run then hits" `Quick test_rc_output_is_miss_run_then_hits;
          Alcotest.test_case "threshold semantics" `Quick test_rc_threshold_controls_misses;
          Alcotest.test_case "keys independent" `Quick test_rc_keys_independent;
          Alcotest.test_case "forget" `Quick test_rc_forget;
          Alcotest.test_case "rejects negative constant" `Quick test_rc_rejects_negative_constant;
          Alcotest.test_case "rejects empty uniform" `Quick test_rc_rejects_empty_uniform;
          Alcotest.test_case "rejects empty geometric" `Quick test_rc_rejects_empty_geometric;
          Alcotest.test_case "rejects empty weighted" `Quick test_rc_rejects_empty_weighted;
          Alcotest.test_case "rejects weightless weighted" `Quick
            test_rc_rejects_weightless_weighted;
          Alcotest.test_case "matches theory" `Slow test_rc_miss_counts_match_theory;
        ] );
      ( "naive",
        [
          Alcotest.test_case "deterministic threshold" `Quick
            test_naive_deterministic_threshold;
        ] );
      ( "marking",
        [
          Alcotest.test_case "producer dominates" `Quick test_marking_producer_dominates;
          Alcotest.test_case "trigger rule" `Quick test_marking_trigger_rule;
          Alcotest.test_case "trigger cleared on eviction" `Quick
            test_marking_trigger_cleared_on_eviction;
          Alcotest.test_case "reserved component" `Quick test_marking_reserved_name_component;
        ] );
      ( "delay",
        [
          Alcotest.test_case "constant" `Quick test_delay_constant;
          Alcotest.test_case "content specific" `Quick test_delay_content_specific;
          Alcotest.test_case "dynamic" `Quick test_delay_dynamic;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "by content" `Quick test_grouping_by_content;
          Alcotest.test_case "by namespace" `Quick test_grouping_by_namespace;
          Alcotest.test_case "by content id" `Quick test_grouping_by_content_id;
        ] );
      ( "unpredictable_names",
        [
          Alcotest.test_case "parties agree" `Quick test_unpredictable_names_agree;
          Alcotest.test_case "secret dependent" `Quick test_unpredictable_names_secret_dependent;
          Alcotest.test_case "verify" `Quick test_unpredictable_names_verify;
          Alcotest.test_case "make_data" `Quick test_unpredictable_names_make_data;
          Alcotest.test_case "entropy" `Quick test_unpredictable_entropy;
        ] );
      ( "policy",
        [
          Alcotest.test_case "no privacy" `Quick test_policy_no_privacy;
          Alcotest.test_case "always delay" `Quick test_policy_always_delay;
          Alcotest.test_case "random cache private" `Quick test_policy_random_cache_private;
          Alcotest.test_case "public bypasses" `Quick test_policy_random_cache_public_bypasses;
          Alcotest.test_case "real miss dominates" `Quick test_policy_real_miss_never_hit;
          Alcotest.test_case "grouping shares state" `Quick test_policy_grouping_shares_state;
          Alcotest.test_case "labels" `Quick test_policy_labels;
        ] );
      ( "private_router",
        [
          Alcotest.test_case "no countermeasure leaks" `Quick test_private_router_no_cm_leaks;
          Alcotest.test_case "content-specific delay hides hits" `Quick
            test_private_router_content_specific_delay_hides_hits;
          Alcotest.test_case "constant delay pads misses" `Quick
            test_private_router_constant_delay_pads_misses;
          Alcotest.test_case "public content fast" `Quick test_private_router_public_content_fast;
          Alcotest.test_case "random-cache mimic" `Quick test_private_router_random_cache_mimic;
          Alcotest.test_case "defeats scope oracle" `Quick
            test_private_router_defeats_scope_oracle;
        ] );
      ( "interactive_session",
        [
          Alcotest.test_case "predictable completes" `Quick
            test_interactive_session_predictable_completes;
          Alcotest.test_case "unpredictable completes" `Quick
            test_interactive_session_unpredictable_completes;
          Alcotest.test_case "shards 2 = shards 1" `Quick
            test_interactive_session_shard_invariant;
          Alcotest.test_case "distinct direction names" `Quick
            test_interactive_session_directions_use_distinct_names;
          Alcotest.test_case "frames cached at router" `Quick
            test_interactive_frames_cached_at_router;
          Alcotest.test_case "content-id auto grouping" `Quick
            test_private_router_auto_registers_content_id;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
