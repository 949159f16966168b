(* Tests for the workload substrate: Zipf sampling, traces, the
   synthetic IRCache generator, replay, and sweeps. *)

let check_close msg tol expected actual = Alcotest.(check (float tol)) msg expected actual

(* --- Zipf --- *)

let test_zipf_probabilities_sum () =
  let z = Workload.Zipf.create ~n:100 ~s:1. in
  let total = ref 0. in
  for r = 1 to 100 do
    total := !total +. Workload.Zipf.prob z r
  done;
  check_close "pmf sums to 1" 1e-9 1. !total

let test_zipf_rank_ordering () =
  let z = Workload.Zipf.create ~n:50 ~s:0.9 in
  for r = 1 to 49 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d more popular than %d" r (r + 1))
      true
      (Workload.Zipf.prob z r >= Workload.Zipf.prob z (r + 1))
  done

let test_zipf_s0_uniform () =
  let z = Workload.Zipf.create ~n:10 ~s:0. in
  for r = 1 to 10 do
    check_close "uniform when s=0" 1e-9 0.1 (Workload.Zipf.prob z r)
  done

let test_zipf_sampling_matches_pmf () =
  let z = Workload.Zipf.create ~n:20 ~s:1. in
  let rng = Sim.Rng.create 5 in
  let counts = Array.make 21 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let r = Workload.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  for r = 1 to 20 do
    check_close
      (Printf.sprintf "rank %d frequency" r)
      0.01
      (Workload.Zipf.prob z r)
      (float_of_int counts.(r) /. float_of_int n)
  done

let test_zipf_head_mass () =
  let z = Workload.Zipf.create ~n:100 ~s:1. in
  check_close "head 0" 1e-9 0. (Workload.Zipf.head_mass z 0);
  check_close "full head" 1e-9 1. (Workload.Zipf.head_mass z 100);
  Alcotest.(check bool) "head grows" true
    (Workload.Zipf.head_mass z 10 < Workload.Zipf.head_mass z 50)

let test_zipf_rejects_bad_args () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Workload.Zipf.create ~n:0 ~s:1.));
  Alcotest.check_raises "negative s" (Invalid_argument "Zipf.create: negative exponent")
    (fun () -> ignore (Workload.Zipf.create ~n:5 ~s:(-1.)))

(* --- Trace --- *)

let mk_trace records = Workload.Trace.create (Array.of_list records)

let rec_ t u c = { Workload.Trace.time_s = t; user = u; content = c }

let test_trace_basics () =
  let t = mk_trace [ rec_ 0. 0 1; rec_ 1. 1 2; rec_ 2. 0 1 ] in
  Alcotest.(check int) "length" 3 (Workload.Trace.length t);
  Alcotest.(check int) "users" 2 (Workload.Trace.users t);
  Alcotest.(check int) "distinct" 2 (Workload.Trace.distinct_contents t);
  check_close "duration" 1e-9 2. (Workload.Trace.duration_s t)

let test_trace_rejects_disorder () =
  Alcotest.check_raises "out of order"
    (Invalid_argument "Trace.create: timestamps must be non-decreasing") (fun () ->
      ignore (mk_trace [ rec_ 5. 0 0; rec_ 1. 0 1 ]))

let test_trace_save_load_roundtrip () =
  let t = mk_trace [ rec_ 0.5 3 7; rec_ 1.25 1 9; rec_ 2. 3 7 ] in
  let path = Filename.temp_file "trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace.save t ~path;
      let t' =
        match Workload.Trace.load ~path with
        | Ok t' -> t'
        | Error msg -> Alcotest.failf "load: %s" msg
      in
      Alcotest.(check int) "length" (Workload.Trace.length t) (Workload.Trace.length t');
      for i = 0 to Workload.Trace.length t - 1 do
        let a = Workload.Trace.get t i and b = Workload.Trace.get t' i in
        Alcotest.(check int) "user" a.Workload.Trace.user b.Workload.Trace.user;
        Alcotest.(check int) "content" a.Workload.Trace.content b.Workload.Trace.content;
        check_close "time" 1e-5 a.Workload.Trace.time_s b.Workload.Trace.time_s
      done)

let check_trace_error what expected text =
  match Workload.Trace.parse text with
  | Ok _ -> Alcotest.failf "%s: accepted %S" what text
  | Error msg -> Alcotest.(check string) what expected msg

let test_trace_load_malformed () =
  check_trace_error "missing field" "line 3: expected 'TIME USER CONTENT', got 2 fields"
    "# time user content\n0.5 3 7\n1.0 4\n";
  check_trace_error "bad user" "line 1: user: expected an integer, got \"x\"" "0.5 x 7\n";
  check_trace_error "non-finite time" "line 1: time: expected a finite number, got \"nan\""
    "nan 1 2\n";
  match Workload.Trace.load ~path:"/nonexistent/trace.txt" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

let test_trace_load_out_of_order () =
  check_trace_error "disorder" "line 3: time 1 is before the previous record's 2"
    "0.5 1 1\n2 1 2\n1 1 3\n"

let test_trace_sub () =
  let t = mk_trace [ rec_ 0. 0 0; rec_ 1. 0 1; rec_ 2. 0 2; rec_ 3. 0 3 ] in
  let s = Workload.Trace.sub t ~pos:1 ~len:2 in
  Alcotest.(check int) "sub length" 2 (Workload.Trace.length s);
  Alcotest.(check int) "sub first" 1 (Workload.Trace.get s 0).Workload.Trace.content

let test_trace_of_columns_rejects () =
  let of_columns times = Workload.Trace.of_columns ~times ~users:[| 0; 0 |] ~contents:[| 1; 2 |] in
  Alcotest.(check int) "equal times" 2 (Workload.Trace.length (of_columns [| 1.; 1. |]));
  Alcotest.check_raises "out of order"
    (Invalid_argument "Trace.of_columns: timestamps must be non-decreasing") (fun () ->
      ignore (of_columns [| 2.; 1. |]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Trace.of_columns: columns differ in length") (fun () ->
      ignore (of_columns [| 1. |]))

(* Three flat columns: 3 words per request plus the headers, where an
   array of records with a boxed float field takes 7. *)
let test_trace_resident_words () =
  let n = 10_000 in
  let t = Workload.Ircache.generate { Workload.Ircache.default with requests = n; seed = 3 } in
  let words = Obj.reachable_words (Obj.repr t) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d requests <= 3n + 16" words n)
    true
    (words <= (3 * n) + 16)

let test_trace_name_mapping () =
  Alcotest.(check string) "stable name" "/trace/c42"
    (Ndn.Name.to_string (Workload.Trace.name_of 42));
  Alcotest.(check bool) "distinct ids distinct names" false
    (Ndn.Name.equal (Workload.Trace.name_of 1) (Workload.Trace.name_of 2))

(* --- Ircache generator --- *)

let small_cfg =
  { Workload.Ircache.default with Workload.Ircache.requests = 20_000; seed = 3 }

let test_ircache_shape () =
  let t = Workload.Ircache.generate small_cfg in
  Alcotest.(check int) "request count" 20_000 (Workload.Trace.length t);
  Alcotest.(check int) "user population" 185 (Workload.Trace.users t);
  Alcotest.(check bool) "spans most of 24h" true
    (Workload.Trace.duration_s t > 0.9 *. 86_400.);
  let distinct = Workload.Trace.distinct_contents t in
  (* ~40% one-timers plus catalog hits *)
  Alcotest.(check bool)
    (Printf.sprintf "distinct contents plausible (%d)" distinct)
    true
    (distinct > 8_000 && distinct < 16_000)

let test_ircache_deterministic () =
  let a = Workload.Ircache.generate small_cfg in
  let b = Workload.Ircache.generate small_cfg in
  Alcotest.(check int) "same length" (Workload.Trace.length a) (Workload.Trace.length b);
  for i = 0 to 200 do
    let ra = Workload.Trace.get a i and rb = Workload.Trace.get b i in
    Alcotest.(check int) "same content" ra.Workload.Trace.content rb.Workload.Trace.content;
    Alcotest.(check int) "same user" ra.Workload.Trace.user rb.Workload.Trace.user
  done

let test_ircache_seed_changes_trace () =
  let a = Workload.Ircache.generate small_cfg in
  let b = Workload.Ircache.generate { small_cfg with Workload.Ircache.seed = 4 } in
  let differs = ref false in
  for i = 0 to 200 do
    if
      (Workload.Trace.get a i).Workload.Trace.content
      <> (Workload.Trace.get b i).Workload.Trace.content
    then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_ircache_diurnal_variation () =
  let t = Workload.Ircache.generate { small_cfg with Workload.Ircache.requests = 50_000 } in
  (* Count requests in the busiest vs quietest 4-hour window. *)
  let buckets = Array.make 6 0 in
  Workload.Trace.iter t ~f:(fun r ->
      let b = int_of_float (r.Workload.Trace.time_s /. (4. *. 3600.)) in
      let b = min 5 (max 0 b) in
      buckets.(b) <- buckets.(b) + 1);
  let mx = Array.fold_left max 0 buckets and mn = Array.fold_left min max_int buckets in
  Alcotest.(check bool)
    (Printf.sprintf "diurnal swing (min %d max %d)" mn mx)
    true
    (float_of_int mx > 1.5 *. float_of_int mn)

(* --- Replay --- *)

let tiny_trace () =
  (* contents: 1 repeated heavily, 2 moderately, 3.. one-timers *)
  let records =
    List.concat_map
      (fun i ->
        [ rec_ (float_of_int i) 0 1; rec_ (float_of_int i +. 0.1) 1 (100 + i) ])
      (List.init 50 Fun.id)
  in
  Workload.Trace.create
    (Array.of_list (List.sort (fun a b -> compare a.Workload.Trace.time_s b.Workload.Trace.time_s) records))

let test_replay_no_privacy_counts_real_hits () =
  let t = tiny_trace () in
  let o =
    Workload.Replay.replay t
      {
        Workload.Replay.default_config with
        Workload.Replay.policy = Core.Policy.No_privacy;
        private_mode = Workload.Replay.Per_content 0.;
        cache_capacity = 0;
      }
  in
  (* content 1 requested 50 times -> 49 hits; one-timers -> 0 hits *)
  Alcotest.(check int) "real hits" 49 o.Workload.Replay.real_hits;
  Alcotest.(check int) "observable = real under no-privacy" 49
    o.Workload.Replay.observable_hits;
  Alcotest.(check int) "no hidden hits" 0 o.Workload.Replay.hidden_hits

let test_replay_always_delay_hides_private () =
  let t = tiny_trace () in
  let o =
    Workload.Replay.replay t
      {
        Workload.Replay.default_config with
        Workload.Replay.policy = Core.Policy.Always_delay;
        private_mode = Workload.Replay.Per_content 1.;
        cache_capacity = 0;
      }
  in
  Alcotest.(check int) "everything private: zero observable hits" 0
    o.Workload.Replay.observable_hits;
  Alcotest.(check int) "real hits unchanged" 49 o.Workload.Replay.real_hits;
  Alcotest.(check int) "hidden = real" 49 o.Workload.Replay.hidden_hits

let test_replay_random_cache_between () =
  let t = tiny_trace () in
  let run policy =
    Workload.Replay.observable_hit_rate
      (Workload.Replay.replay t
         {
           Workload.Replay.default_config with
           Workload.Replay.policy;
           private_mode = Workload.Replay.Per_content 1.;
           cache_capacity = 0;
         })
  in
  let no_privacy = run Core.Policy.No_privacy in
  let always = run Core.Policy.Always_delay in
  let rc = run (Core.Policy.Random_cache (Core.Kdist.Uniform 20)) in
  Alcotest.(check bool)
    (Printf.sprintf "always (%.2f) <= rc (%.2f) <= no-privacy (%.2f)" always rc no_privacy)
    true
    (always <= rc +. 1e-9 && rc <= no_privacy +. 1e-9)

let test_replay_capacity_monotone () =
  let t = Workload.Ircache.generate { small_cfg with Workload.Ircache.requests = 30_000 } in
  let rate cap =
    Workload.Replay.observable_hit_rate
      (Workload.Replay.replay t
         {
           Workload.Replay.default_config with
           Workload.Replay.cache_capacity = cap;
           policy = Core.Policy.No_privacy;
         })
  in
  let r500 = rate 500 and r2000 = rate 2000 and rinf = rate 0 in
  Alcotest.(check bool)
    (Printf.sprintf "hit rate grows with capacity (%.3f <= %.3f <= %.3f)" r500 r2000 rinf)
    true
    (r500 <= r2000 +. 0.01 && r2000 <= rinf +. 0.01);
  let bounded =
    Workload.Replay.replay t
      {
        Workload.Replay.default_config with
        Workload.Replay.cache_capacity = 500;
        policy = Core.Policy.No_privacy;
      }
  in
  Alcotest.(check bool) "bounded cache evicts" true
    (bounded.Workload.Replay.evictions > 0)

let test_replay_per_content_privacy_deterministic () =
  let t = tiny_trace () in
  let cfg =
    {
      Workload.Replay.default_config with
      Workload.Replay.private_mode = Workload.Replay.Per_content 0.5;
      policy = Core.Policy.Always_delay;
    }
  in
  let a = Workload.Replay.replay t cfg and b = Workload.Replay.replay t cfg in
  Alcotest.(check int) "same private count" a.Workload.Replay.private_requests
    b.Workload.Replay.private_requests;
  Alcotest.(check int) "same observable hits" a.Workload.Replay.observable_hits
    b.Workload.Replay.observable_hits

let test_replay_private_fraction_effect () =
  let t = Workload.Ircache.generate { small_cfg with Workload.Ircache.requests = 30_000 } in
  let rate fraction =
    Workload.Replay.observable_hit_rate
      (Workload.Replay.replay t
         {
           Workload.Replay.default_config with
           Workload.Replay.policy = Core.Policy.Always_delay;
           private_mode = Workload.Replay.Per_content fraction;
           cache_capacity = 4000;
         })
  in
  let r5 = rate 0.05 and r40 = rate 0.4 in
  Alcotest.(check bool)
    (Printf.sprintf "more private content, fewer observable hits (%.3f > %.3f)" r5 r40)
    true (r5 > r40)

(* The replay keeps a content's object only while the content has a
   later request, found with a seen-set over the content ids: a byte
   per id for dense ids, a hash table for sparse ones.  Spreading the
   ids of a trace far apart takes the second path and must not change
   what the cache does. *)
let test_replay_sparse_ids_like_dense () =
  let t = Workload.Ircache.generate { small_cfg with Workload.Ircache.requests = 5_000 } in
  let sparse =
    Workload.Trace.create
      (Array.init (Workload.Trace.length t) (fun i ->
           let r = Workload.Trace.get t i in
           { r with Workload.Trace.content = (r.Workload.Trace.content * 1_000_003) + 7 }))
  in
  let run t =
    Workload.Replay.replay t
      {
        Workload.Replay.default_config with
        Workload.Replay.policy = Core.Policy.No_privacy;
        private_mode = Workload.Replay.Per_content 0.;
        cache_capacity = 300;
      }
  in
  let a = run t and b = run sparse in
  Alcotest.(check bool) "the bounded cache evicts" true (a.Workload.Replay.evictions > 0);
  Alcotest.(check int) "real hits" a.Workload.Replay.real_hits b.Workload.Replay.real_hits;
  Alcotest.(check int) "evictions" a.Workload.Replay.evictions b.Workload.Replay.evictions;
  Alcotest.(check int) "observable hits" a.Workload.Replay.observable_hits
    b.Workload.Replay.observable_hits

(* --- Metrics sweeps --- *)

let test_sweep_structure () =
  let t = Workload.Ircache.generate { small_cfg with Workload.Ircache.requests = 5_000 } in
  let rows =
    Workload.Metrics.sweep t ~cache_sizes:[ 100; 0 ]
      ~policies:[ Core.Policy.No_privacy; Core.Policy.Always_delay ]
      ()
  in
  Alcotest.(check int) "rows = sizes x policies" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "all requests processed" 5_000
        r.Workload.Metrics.outcome.Workload.Replay.requests)
    rows

let test_sweep_private_fraction_structure () =
  let t = Workload.Ircache.generate { small_cfg with Workload.Ircache.requests = 5_000 } in
  let rows =
    Workload.Metrics.sweep_private_fraction t ~cache_sizes:[ 100 ]
      ~policy:Core.Policy.Always_delay ~fractions:[ 0.05; 0.4 ] ()
  in
  Alcotest.(check int) "rows" 2 (List.length rows);
  match rows with
  | [ a; b ] ->
    Alcotest.(check bool) "fractions recorded" true
      (a.Workload.Metrics.private_fraction = 0.05
      && b.Workload.Metrics.private_fraction = 0.4)
  | _ -> Alcotest.fail "unexpected row count"

let test_cache_size_label () =
  Alcotest.(check string) "inf" "Inf" (Workload.Metrics.cache_size_label 0);
  Alcotest.(check string) "number" "8000" (Workload.Metrics.cache_size_label 8000)


(* --- Squid log parsing --- *)

let squid_lines =
  [
    "1189036512.145  124 client-a TCP_MISS/200 4122 GET http://example.com/one - DIRECT/1.2.3.4 text/html";
    "1189036513.001   17 client-b TCP_HIT/200 412 GET http://example.com/two - NONE/- image/png";
    "1189036514.500   80 client-a TCP_MISS/200 999 GET http://example.com/one - DIRECT/1.2.3.4 text/html";
  ]

let test_squid_parse_line () =
  (match Workload.Squid_log.parse_line (List.hd squid_lines) with
  | Some (ts, client, url) ->
    Alcotest.(check (float 1e-6)) "timestamp" 1189036512.145 ts;
    Alcotest.(check string) "client" "client-a" client;
    Alcotest.(check string) "url" "http://example.com/one" url
  | None -> Alcotest.fail "line should parse");
  Alcotest.(check bool) "garbage rejected" true
    (Workload.Squid_log.parse_line "not a log line" = None);
  Alcotest.(check bool) "negative timestamp rejected" true
    (Workload.Squid_log.parse_line
       "-5.0 1 c TCP_MISS/200 1 GET http://x - D/1 t"
    = None)

let test_squid_of_lines () =
  let trace, stats = Workload.Squid_log.of_lines ("" :: "junk" :: squid_lines) in
  Alcotest.(check int) "parsed" 3 stats.Workload.Squid_log.parsed;
  Alcotest.(check int) "skipped" 1 stats.Workload.Squid_log.skipped;
  Alcotest.(check int) "records" 3 (Workload.Trace.length trace);
  Alcotest.(check int) "users interned" 2 (Workload.Trace.users trace);
  Alcotest.(check int) "contents interned" 2 (Workload.Trace.distinct_contents trace);
  (* timestamps normalized to start at 0 *)
  Alcotest.(check (float 1e-6)) "starts at zero" 0.
    (Workload.Trace.get trace 0).Workload.Trace.time_s;
  (* same URL -> same content id *)
  let c0 = (Workload.Trace.get trace 0).Workload.Trace.content in
  let c2 = (Workload.Trace.get trace 2).Workload.Trace.content in
  Alcotest.(check int) "repeat URL shares id" c0 c2

let test_squid_out_of_order_sorted () =
  let lines =
    [
      "200.0 1 c TCP_MISS/200 1 GET http://x/2 - D/1 t";
      "100.0 1 c TCP_MISS/200 1 GET http://x/1 - D/1 t";
    ]
  in
  let trace, _ = Workload.Squid_log.of_lines lines in
  Alcotest.(check (float 1e-6)) "sorted" 0.
    (Workload.Trace.get trace 0).Workload.Trace.time_s;
  Alcotest.(check (float 1e-6)) "gap preserved" 100.
    (Workload.Trace.get trace 1).Workload.Trace.time_s

let test_squid_replayable () =
  let trace, _ = Workload.Squid_log.of_lines squid_lines in
  let o =
    Workload.Replay.replay trace
      {
        Workload.Replay.default_config with
        Workload.Replay.policy = Core.Policy.No_privacy;
        private_mode = Workload.Replay.Per_content 0.;
        cache_capacity = 0;
      }
  in
  (* URL /one requested twice -> 1 real hit. *)
  Alcotest.(check int) "hits" 1 o.Workload.Replay.real_hits


(* --- LRU-stack temporal-locality generator --- *)

let test_lru_stack_shape () =
  let t =
    Workload.Lru_stack.generate
      { Workload.Lru_stack.default with Workload.Lru_stack.requests = 10_000; seed = 6 }
  in
  Alcotest.(check int) "length" 10_000 (Workload.Trace.length t);
  Alcotest.(check bool) "users bounded" true (Workload.Trace.users t <= 185);
  Alcotest.(check bool) "has repeats" true
    (Workload.Trace.distinct_contents t < 10_000)

let test_lru_stack_deterministic () =
  let cfg = { Workload.Lru_stack.default with Workload.Lru_stack.requests = 2_000 } in
  let a = Workload.Lru_stack.generate cfg and b = Workload.Lru_stack.generate cfg in
  for i = 0 to 100 do
    Alcotest.(check int) "same content"
      (Workload.Trace.get a i).Workload.Trace.content
      (Workload.Trace.get b i).Workload.Trace.content
  done

let test_lru_stack_locality_beats_iid () =
  (* The point of the model: an LRU cache does far better under
     stack-model traffic than under i.i.d. Zipf at equal cache size. *)
  let rate trace =
    Workload.Replay.observable_hit_rate
      (Workload.Replay.replay trace
         {
           Workload.Replay.default_config with
           Workload.Replay.cache_capacity = 500;
           policy = Core.Policy.No_privacy;
           private_mode = Workload.Replay.Per_content 0.;
         })
  in
  let local =
    rate
      (Workload.Lru_stack.generate
         { Workload.Lru_stack.default with Workload.Lru_stack.requests = 20_000 })
  in
  let iid =
    rate
      (Workload.Ircache.generate
         { Workload.Ircache.default with Workload.Ircache.requests = 20_000 })
  in
  Alcotest.(check bool)
    (Printf.sprintf "locality %.2f >> iid %.2f" local iid)
    true
    (local > iid +. 0.15)

let test_lru_stack_validation () =
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Lru_stack.generate: fresh_fraction out of range") (fun () ->
      ignore
        (Workload.Lru_stack.generate
           { Workload.Lru_stack.default with Workload.Lru_stack.fresh_fraction = 1.5 }))

(* --- property tests --- *)

(* --- Zipf memoized normalizer (regression for the per-(n,s) memo) --- *)

(* Pinned sampler output: the memo must never change what the sampler
   draws.  If this fails, the CDF (or the splitmix64 stream) changed —
   a reviewed decision, not a drift. *)
let test_zipf_pinned_sampler () =
  let z = Workload.Zipf.create ~n:1000 ~s:0.85 in
  let rng = Sim.Rng.create 123 in
  let samples = List.init 10 (fun _ -> Workload.Zipf.sample z rng) in
  Alcotest.(check (list int))
    "pinned samples for seed 123"
    [ 11; 180; 711; 45; 38; 1; 545; 33; 1; 40 ]
    samples

let test_zipf_memo_consistent () =
  let a = Workload.Zipf.create ~n:400 ~s:0.7 in
  let b = Workload.Zipf.create ~n:400 ~s:0.7 in
  for r = 1 to 400 do
    check_close
      (Printf.sprintf "memoized prob at rank %d" r)
      1e-15 (Workload.Zipf.prob a r) (Workload.Zipf.prob b r)
  done;
  let r1 = Sim.Rng.create 5 and r2 = Sim.Rng.create 5 in
  for i = 1 to 200 do
    Alcotest.(check int)
      (Printf.sprintf "sample %d identical" i)
      (Workload.Zipf.sample a r1) (Workload.Zipf.sample b r2)
  done;
  (* Churn past the memo capacity so the table resets, then recreate:
     the law must be unchanged. *)
  let p1 = Workload.Zipf.prob a 1 in
  for i = 1 to 80 do
    ignore (Workload.Zipf.create ~n:(10 + i) ~s:0.5)
  done;
  let c = Workload.Zipf.create ~n:400 ~s:0.7 in
  check_close "law survives a memo reset" 1e-15 p1 (Workload.Zipf.prob c 1)

(* --- Aggregate consumers: statistical properties --------------------- *)

(* One caching node that also hosts the producer: requests resolve
   locally, so these tests exercise only the arrival/rank process. *)
let aggregate_net () =
  let net = Ndn.Network.create ~seed:4 () in
  let n = Ndn.Network.add_node net ~cs_capacity:8 "n" in
  let prefix = Ndn.Name.of_string "/agg" in
  Ndn.Node.add_producer n ~prefix (fun i ->
      Some
        (Ndn.Data.create ~producer:"n" ~key:"k" ~payload:"v"
           i.Ndn.Interest.name));
  (net, n, prefix)

(* Chi-squared goodness of fit of the emitted ranks against the Zipf
   pmf.  Fixed seed, so the statistic is deterministic — the threshold
   is the df=49 critical value at p ≈ 0.001 with headroom, not a
   tolerance that can flake. *)
let test_aggregate_zipf_gof () =
  let net, n, prefix = aggregate_net () in
  let rng = Sim.Rng.create 77 in
  let config =
    {
      Workload.Aggregate.default with
      users = 2_000;
      req_per_user_per_hour = 90.;
      catalog = 50;
      zipf_s = 0.85;
      diurnal_period_ms = 30_000.;
      record_ranks = true;
    }
  in
  let agg =
    Workload.Aggregate.attach config ~node:n ~prefix ~rng ~until:60_000. ()
  in
  Ndn.Network.run net;
  let counts =
    match Workload.Aggregate.rank_counts agg with
    | Some c -> c
    | None -> Alcotest.fail "record_ranks lost the histogram"
  in
  let total = Array.fold_left ( + ) 0 counts in
  Alcotest.(check int) "histogram covers every request"
    (Workload.Aggregate.requests_issued agg)
    total;
  Alcotest.(check bool) "enough samples for the test" true (total > 2_000);
  let z = Workload.Zipf.create ~n:config.catalog ~s:config.zipf_s in
  (* Merge trailing ranks until every bin expects >= 5. *)
  let chi2 = ref 0. and df = ref (-1) in
  let obs = ref 0. and expd = ref 0. in
  for r = 1 to config.catalog do
    obs := !obs +. float_of_int counts.(r - 1);
    expd := !expd +. (float_of_int total *. Workload.Zipf.prob z r);
    if !expd >= 5. then begin
      let d = !obs -. !expd in
      chi2 := !chi2 +. (d *. d /. !expd);
      incr df;
      obs := 0.;
      expd := 0.
    end
  done;
  if !expd > 0. then chi2 := !chi2 +. ((!obs -. !expd) ** 2. /. !expd);
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.1f within critical range for df %d" !chi2 !df)
    true
    (!chi2 < 90.)

(* Diurnal modulation: with phase 0 the sine is positive over the first
   half period and negative over the second, so the first-half request
   count must clearly dominate.  Fixed seed: deterministic. *)
let test_aggregate_diurnal_modulation () =
  let net, n, prefix = aggregate_net () in
  let rng = Sim.Rng.create 13 in
  let period = 40_000. in
  let config =
    {
      Workload.Aggregate.default with
      users = 2_000;
      req_per_user_per_hour = 90.;
      catalog = 20;
      diurnal_amplitude = 0.9;
      diurnal_period_ms = period;
      diurnal_phase_ms = 0.;
    }
  in
  let agg =
    Workload.Aggregate.attach config ~node:n ~prefix ~rng ~until:period ()
  in
  Ndn.Network.run net ~until:(period /. 2.);
  let peak = Workload.Aggregate.requests_issued agg in
  Ndn.Network.run net;
  let trough = Workload.Aggregate.requests_issued agg - peak in
  Alcotest.(check bool)
    (Printf.sprintf "peak half (%d) >> trough half (%d)" peak trough)
    true
    (peak > 2 * trough && trough > 0)

let test_aggregate_validation () =
  let _net, n, prefix = aggregate_net () in
  let attach config =
    ignore
      (Workload.Aggregate.attach config ~node:n ~prefix
         ~rng:(Sim.Rng.create 1)
         ~until:10. ())
  in
  Alcotest.check_raises "users" (Invalid_argument "Aggregate: users must be positive")
    (fun () -> attach { Workload.Aggregate.default with users = 0 });
  Alcotest.check_raises "amplitude"
    (Invalid_argument "Aggregate: diurnal_amplitude must lie in [0, 1]")
    (fun () ->
      attach { Workload.Aggregate.default with diurnal_amplitude = 1.5 });
  Alcotest.check_raises "rate"
    (Invalid_argument "Aggregate: req_per_user_per_hour must be positive")
    (fun () ->
      attach { Workload.Aggregate.default with req_per_user_per_hour = 0. })

(* Non-decreasing records from a start and a list of steps; timestamps
   are whole milliseconds, so the saved format's six decimals carry
   them exactly. *)
let records_of start steps =
  let ms = ref start in
  Array.of_list
    (List.map
       (fun (dt, user, content) ->
         ms := !ms + dt;
         rec_ (float_of_int !ms /. 1000.) user content)
       steps)

let trace_round_trip (start, steps, (a, b)) =
  let records = records_of start steps in
  let n = Array.length records in
  let t = Workload.Trace.create records in
  let same t' = Array.init (Workload.Trace.length t') (Workload.Trace.get t') = records in
  let iterated = ref [] in
  Workload.Trace.iter t ~f:(fun r -> iterated := r :: !iterated);
  let pos = a mod (n + 1) in
  let len = b mod (n - pos + 1) in
  let s = Workload.Trace.sub t ~pos ~len in
  let path = Filename.temp_file "trace" ".txt" in
  let loaded =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Workload.Trace.save t ~path;
        Workload.Trace.load ~path)
  in
  same t
  && Array.of_list (List.rev !iterated) = records
  && Array.init len (Workload.Trace.get s) = Array.sub records pos len
  && match loaded with Ok t' -> same t' | Error msg -> QCheck.Test.fail_report msg

let qcheck_tests =
  [
    QCheck.Test.make ~name:"trace records survive create, get, iter, sub, save/load"
      ~count:100
      QCheck.(
        triple
          (int_range (-1_000_000) 1_000_000)
          (list_of_size Gen.(int_range 0 60) (triple (int_range 0 5_000) int int))
          (pair small_nat small_nat))
      trace_round_trip;
    QCheck.Test.make ~name:"zipf samples within range" ~count:200
      QCheck.(triple small_int (int_range 1 100) (float_range 0. 2.))
      (fun (seed, n, s) ->
        let z = Workload.Zipf.create ~n ~s in
        let rng = Sim.Rng.create seed in
        let r = Workload.Zipf.sample z rng in
        r >= 1 && r <= n);
    QCheck.Test.make ~name:"head_mass monotone" ~count:200
      QCheck.(triple (int_range 2 100) (float_range 0. 2.) (pair small_nat small_nat))
      (fun (n, s, (a, b)) ->
        let z = Workload.Zipf.create ~n ~s in
        let lo = min a b and hi = max a b in
        Workload.Zipf.head_mass z lo <= Workload.Zipf.head_mass z hi +. 1e-12);
    QCheck.Test.make ~name:"squid parser never raises" ~count:300
      QCheck.(string) (fun line ->
        ignore (Workload.Squid_log.parse_line line);
        true);
    QCheck.Test.make ~name:"squid of_lines accounts every line" ~count:100
      QCheck.(list (string_of_size Gen.(int_range 0 80)))
      (fun lines ->
        let _, stats = Workload.Squid_log.of_lines lines in
        let non_blank =
          List.length (List.filter (fun l -> String.trim l <> "") lines)
        in
        stats.Workload.Squid_log.parsed + stats.Workload.Squid_log.skipped
        = non_blank);
    QCheck.Test.make ~name:"replay hit counts bounded by requests" ~count:20
      QCheck.(pair (int_range 100 2000) (int_range 0 100))
      (fun (n, cap) ->
        let t =
          Workload.Ircache.generate
            { small_cfg with Workload.Ircache.requests = n; seed = n }
        in
        let o =
          Workload.Replay.replay t
            {
              Workload.Replay.default_config with
              Workload.Replay.cache_capacity = cap;
              policy = Core.Policy.Random_cache (Core.Kdist.Uniform 10);
              private_mode = Workload.Replay.Per_content 0.3;
            }
        in
        o.Workload.Replay.observable_hits <= o.Workload.Replay.real_hits
        && o.Workload.Replay.real_hits <= n
        && o.Workload.Replay.observable_hits + o.Workload.Replay.hidden_hits
           = o.Workload.Replay.real_hits);
    QCheck.Test.make ~name:"observable rate <= real rate" ~count:20
      QCheck.(int_range 0 1000)
      (fun seed ->
        let t =
          Workload.Ircache.generate
            { small_cfg with Workload.Ircache.requests = 1000; seed }
        in
        let o =
          Workload.Replay.replay t
            {
              Workload.Replay.default_config with
              Workload.Replay.policy = Core.Policy.Always_delay;
              private_mode = Workload.Replay.Per_content 0.5;
            }
        in
        Workload.Replay.observable_hit_rate o <= Workload.Replay.real_hit_rate o +. 1e-12);
  ]

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "pmf sums" `Quick test_zipf_probabilities_sum;
          Alcotest.test_case "rank ordering" `Quick test_zipf_rank_ordering;
          Alcotest.test_case "s=0 uniform" `Quick test_zipf_s0_uniform;
          Alcotest.test_case "sampling matches pmf" `Slow test_zipf_sampling_matches_pmf;
          Alcotest.test_case "head mass" `Quick test_zipf_head_mass;
          Alcotest.test_case "argument validation" `Quick test_zipf_rejects_bad_args;
          Alcotest.test_case "pinned sampler" `Quick test_zipf_pinned_sampler;
          Alcotest.test_case "memo consistent" `Quick test_zipf_memo_consistent;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "rejects disorder" `Quick test_trace_rejects_disorder;
          Alcotest.test_case "save/load" `Quick test_trace_save_load_roundtrip;
          Alcotest.test_case "load malformed line" `Quick test_trace_load_malformed;
          Alcotest.test_case "load out of order" `Quick test_trace_load_out_of_order;
          Alcotest.test_case "sub" `Quick test_trace_sub;
          Alcotest.test_case "of_columns rejects" `Quick test_trace_of_columns_rejects;
          Alcotest.test_case "resident words" `Quick test_trace_resident_words;
          Alcotest.test_case "name mapping" `Quick test_trace_name_mapping;
        ] );
      ( "ircache",
        [
          Alcotest.test_case "shape" `Quick test_ircache_shape;
          Alcotest.test_case "deterministic" `Quick test_ircache_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_ircache_seed_changes_trace;
          Alcotest.test_case "diurnal variation" `Quick test_ircache_diurnal_variation;
        ] );
      ( "replay",
        [
          Alcotest.test_case "no-privacy real hits" `Quick
            test_replay_no_privacy_counts_real_hits;
          Alcotest.test_case "always-delay hides" `Quick test_replay_always_delay_hides_private;
          Alcotest.test_case "random-cache between" `Quick test_replay_random_cache_between;
          Alcotest.test_case "capacity monotone" `Slow test_replay_capacity_monotone;
          Alcotest.test_case "per-content deterministic" `Quick
            test_replay_per_content_privacy_deterministic;
          Alcotest.test_case "private fraction effect" `Slow test_replay_private_fraction_effect;
          Alcotest.test_case "sparse ids replay like dense" `Quick
            test_replay_sparse_ids_like_dense;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "sweep structure" `Quick test_sweep_structure;
          Alcotest.test_case "fraction sweep" `Quick test_sweep_private_fraction_structure;
          Alcotest.test_case "labels" `Quick test_cache_size_label;
        ] );
      ( "squid",
        [
          Alcotest.test_case "parse line" `Quick test_squid_parse_line;
          Alcotest.test_case "of_lines" `Quick test_squid_of_lines;
          Alcotest.test_case "out-of-order sorted" `Quick test_squid_out_of_order_sorted;
          Alcotest.test_case "replayable" `Quick test_squid_replayable;
        ] );
      ( "lru_stack",
        [
          Alcotest.test_case "shape" `Quick test_lru_stack_shape;
          Alcotest.test_case "deterministic" `Quick test_lru_stack_deterministic;
          Alcotest.test_case "locality beats iid" `Slow test_lru_stack_locality_beats_iid;
          Alcotest.test_case "validation" `Quick test_lru_stack_validation;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "zipf goodness of fit" `Quick test_aggregate_zipf_gof;
          Alcotest.test_case "diurnal modulation" `Quick
            test_aggregate_diurnal_modulation;
          Alcotest.test_case "validation" `Quick test_aggregate_validation;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
