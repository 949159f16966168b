(* bench scale: internet-scale cache privacy on a generated ISP tree.

   Builds a tiered hierarchy with one [generate tree] directive, drives
   it with aggregate edge consumers (Workload.Aggregate: one entity per
   access router standing for its user population), then runs the
   paper's timing attack per tier:

   - warm phase: every access router's aggregate issues a Zipf +
     diurnal-modulated request stream for a window of virtual time;
     per-tier cache hit rates are read off the node counters;
   - calibration: for each tier, plant a unique name so the first cache
     on the adversary's path holding it sits exactly at that tier
     (fetch it from an access router whose path joins the adversary's
     at that tier), measure the probe RTT once — an empirical centroid
     per serving tier, no analytic latency model needed;
   - sweep: probe a mix of popular, mid-tail and fresh names from an
     adversary host behind one access router.  Ground truth is the
     first cache on the upward path with the name in its CS (read
     non-mutatingly before the probe); the attacker's guess is the
     nearest calibration centroid.  Per-tier accuracy is the fraction
     of probes whose guess matches the truth.

   The tree, the calibration names, the classifier, the ground truth
   and the probe mix are [Tier_attack]'s, shared with bench overload.
   Default scale: arity 10, 5 tiers = 11,111 routers, 10,000 access
   routers x 100 users = 1M represented users.  --quick: arity 14,
   3 tiers = 211 routers for the CI smoke job.

   Outputs: per-tier CSV (BENCH_scale_tiers.csv) and an events/sec
   entry merged into BENCH_core.json as its "bench_scale" section. *)

let clock_ns () = Int64.to_float (Monotonic_clock.now ())

type params = { warm_ms : float; probes : int }

let params ~quick =
  if quick then { warm_ms = 60_000.; probes = 60 }
  else { warm_ms = 600_000.; probes = 200 }

(* ------------------------------------------------------------------ *)

module TA = Tier_attack
module TS = Ndn.Topology_spec

(* One warm phase: build the tree (optionally sharded over [shards]
   engine domains), attach one aggregate consumer per access router,
   run to quiescence and measure.  Shared by the reported run, which is
   unsharded, and the [--shards] sweep, so every sweep point replays
   the identical workload — every network is shard-count-invariant, so
   [events], [issued] and [timeouts] must agree across sweep points
   (checked by the caller); only [wall_s] may differ. *)
type warm_result = {
  wnet : Ndn.Network.t;
  wevents : int;
  wwindows : int; (* lookahead window rounds; 0 on one engine *)
  wwall_s : float;
  wissued : int;
  wtimeouts : int;
}

let warm_phase ~p ~a ?shards () =
  let net = TA.build ?shards a in
  let aggregates =
    List.map snd (TA.attach_aggregates a net ~warm_ms:p.warm_ms)
  in
  let t0 = clock_ns () in
  let ev0 = Ndn.Network.events_processed net in
  Ndn.Network.run net;
  let wall_s = (clock_ns () -. t0) /. 1e9 in
  let events = Ndn.Network.events_processed net - ev0 in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 aggregates in
  {
    wnet = net;
    wevents = events;
    wwindows = Ndn.Network.windows net;
    wwall_s = wall_s;
    wissued = sum Workload.Aggregate.requests_issued;
    wtimeouts = sum Workload.Aggregate.timeouts;
  }

let run ~quick ?shards () =
  Format.printf
    "@.================ Scale: generated ISP tree + aggregate consumers \
     ================@.";
  let p = params ~quick in
  let a = TA.create ~quick ~name:"scale" ~stem:"" in
  let g = a.TA.graph and k = a.TA.tiers and counts = a.TA.counts in
  let access = TA.access_routers a in
  Format.printf "graph: %d routers, %d links, diameter %d, %d access routers@."
    g.TS.Gen.node_count
    (List.length g.TS.Gen.edges)
    g.TS.Gen.diameter access;

  (* --- warm phase: one aggregate consumer per access router ---
     Always on one engine domain: a sharded run's wall time depends on
     how fast the host wakes a domain blocked at the window barrier,
     which the first sharded run after an idle spell pays in full, so
     the headline times the single-domain run and the [--shards]
     sweep below reports every K on its own row. *)
  let w = warm_phase ~p ~a () in
  let net = w.wnet in
  let node_of = TA.node_of a net in
  let events = w.wevents and wall_s = w.wwall_s in
  let issued = w.wissued and timeouts = w.wtimeouts in
  let events_per_sec = float_of_int events /. Float.max 1e-9 wall_s in
  Format.printf
    "warm: %d requests from %d aggregates (%d users), %d timeouts@." issued
    access (TA.users_per_edge * access) timeouts;
  Format.printf "engine: %d events in %.2f s wall = %.0f events/s@." events
    wall_s events_per_sec;

  (* Per-tier hit rates over the warm phase. *)
  let tier_interests = Array.make k 0 in
  let tier_hits = Array.make k 0 in
  for t = 0 to k - 1 do
    for i = a.TA.off.(t) to a.TA.off.(t + 1) - 1 do
      let c = Ndn.Node.counters (node_of i) in
      tier_interests.(t) <- tier_interests.(t) + c.Ndn.Node.interests_received;
      tier_hits.(t) <- tier_hits.(t) + c.Ndn.Node.cache_responses
    done
  done;

  (* --- adversary host behind one access router; calibration: plant
     each tier's name from its helper, then time the adversary's fetch
     of it, in sequence --- *)
  let adv = TA.add_host a net "scale-adv" in
  let probe name = Ndn.Network.fetch_rtt net ~from:adv name in
  let rtt_of name = Option.value (probe name) ~default:Float.infinity in
  let tier =
    Array.init k (fun l ->
        let cal = TA.calibration_name a l in
        ignore (Ndn.Network.fetch_rtt net ~from:(node_of (TA.helper_leaf a l)) cal);
        rtt_of cal)
  in
  let centroids = { TA.origin = rtt_of (TA.calibration_name a (-1)); tier } in
  Format.printf "centroids (rtt ms): origin %.2f,%s@." centroids.TA.origin
    (String.concat ","
       (Array.to_list
          (Array.mapi (fun l c -> Printf.sprintf " t%d %.2f" l c) tier)));

  (* --- probe sweep --- *)
  let tier_probes = Array.make (k + 1) 0 in
  let tier_correct = Array.make (k + 1) 0 in
  (* Index k holds the origin-served bucket. *)
  let bucket t = if t = -1 then k else t in
  List.iter
    (fun name ->
      let truth = TA.ground_truth a net name in
      match probe name with
      | None -> ()
      | Some rtt ->
        tier_probes.(bucket truth) <- tier_probes.(bucket truth) + 1;
        if TA.classify centroids rtt = truth then
          tier_correct.(bucket truth) <- tier_correct.(bucket truth) + 1)
    (TA.probe_names a ~count:p.probes);

  (* --- report --- *)
  let cs_of_tier t =
    match a.TA.decl.TS.gen_model with
    | TS.Gen_tree { tiers; _ } -> (List.nth tiers t).TS.tier_cs
    | _ -> 0
  in
  let csv = Buffer.create 256 in
  Buffer.add_string csv
    "tier,routers,cs,interests,cache_hits,hit_rate,probes,correct,\
     attacker_accuracy\n";
  let total_probes = ref 0 and total_correct = ref 0 in
  for t = 0 to k - 1 do
    let hr =
      if tier_interests.(t) = 0 then 0.
      else float_of_int tier_hits.(t) /. float_of_int tier_interests.(t)
    in
    let acc =
      if tier_probes.(t) = 0 then 0.
      else float_of_int tier_correct.(t) /. float_of_int tier_probes.(t)
    in
    total_probes := !total_probes + tier_probes.(t);
    total_correct := !total_correct + tier_correct.(t);
    Buffer.add_string csv
      (Printf.sprintf "%d,%d,%d,%d,%d,%.4f,%d,%d,%.4f\n" t counts.(t)
         (cs_of_tier t) tier_interests.(t) tier_hits.(t) hr tier_probes.(t)
         tier_correct.(t) acc);
    Format.printf
      "tier %d: %6d routers  cs %5d  hit rate %5.1f%%  attacker accuracy \
       %5.1f%% (%d probes)@."
      t counts.(t) (cs_of_tier t) (100. *. hr) (100. *. acc) tier_probes.(t)
  done;
  let origin_acc =
    if tier_probes.(k) = 0 then 0.
    else float_of_int tier_correct.(k) /. float_of_int tier_probes.(k)
  in
  total_probes := !total_probes + tier_probes.(k);
  total_correct := !total_correct + tier_correct.(k);
  Buffer.add_string csv
    (Printf.sprintf "origin,0,0,0,0,0,%d,%d,%.4f\n" tier_probes.(k)
       tier_correct.(k) origin_acc);
  Format.printf "origin-served: attacker accuracy %5.1f%% (%d probes)@."
    (100. *. origin_acc)
    tier_probes.(k);
  let overall =
    if !total_probes = 0 then 0.
    else float_of_int !total_correct /. float_of_int !total_probes
  in
  Format.printf "overall attacker accuracy: %.1f%% over %d probes@."
    (100. *. overall) !total_probes;
  let oc = open_out "BENCH_scale_tiers.csv" in
  output_string oc (Buffer.contents csv);
  close_out oc;
  Format.printf "wrote BENCH_scale_tiers.csv@.";
  (* --- sharded warm-phase sweep (--shards N): replay the identical
     warm phase at shard counts 1, N/2 and N and record events/s per
     point; the K = 1 point is the headline run above.
     Networks are shard-count-invariant, so the event/request/timeout
     totals must agree across points — an inline determinism check on
     top of the test suite's byte-level one.  Speedups are honest
     wall-clock ratios on this host: with fewer hardware threads than
     shards the extra domains time-slice and the ratio sits near (or
     below) 1. *)
  let sharded =
    match shards with
    | None -> []
    | Some n ->
      let ks = List.sort_uniq compare [ 1; max 1 (n / 2); n ] in
      let rows =
        List.map
          (fun sk ->
            let r = if sk = 1 then w else warm_phase ~p ~a ~shards:sk () in
            Format.printf
              "shards %d: %d events in %.2f s wall = %.0f events/s, %d windows@." sk
              r.wevents r.wwall_s
              (float_of_int r.wevents /. Float.max 1e-9 r.wwall_s)
              r.wwindows;
            (sk, r))
          ks
      in
      List.iter
        (fun (sk, r) ->
          if
            r.wevents <> events || r.wissued <> issued
            || r.wtimeouts <> timeouts
          then
            failwith
              (Printf.sprintf
                 "bench scale: shard count %d changed the workload \
                  (events %d vs %d, requests %d vs %d) — shard-count \
                  invariance is broken"
                 sk r.wevents events r.wissued issued))
        rows;
      [
        ( "sharded",
          "["
          ^ String.concat ", "
              (List.map
                 (fun (sk, r) ->
                   Printf.sprintf
                     "{\"shards\": %d, \"events\": %d, \"windows\": %d, \
                      \"wall_s\": %.3f, \"events_per_sec\": %.0f, \
                      \"speedup_vs_1\": %.3f}"
                     sk r.wevents r.wwindows r.wwall_s
                     (float_of_int r.wevents /. Float.max 1e-9 r.wwall_s)
                     (wall_s /. Float.max 1e-9 r.wwall_s))
                 rows)
          ^ "]" );
      ]
  in
  Ledger.write "bench_scale"
    ([
       ("quick", string_of_bool quick);
       ("routers", string_of_int g.TS.Gen.node_count);
       ("access_routers", string_of_int access);
       ("represented_users", string_of_int (TA.users_per_edge * access));
       ("requests", string_of_int issued);
       ("events", string_of_int events);
       ("wall_s", Printf.sprintf "%.3f" wall_s);
       ("events_per_sec", Printf.sprintf "%.0f" events_per_sec);
       ("attacker_accuracy", Printf.sprintf "%.4f" overall);
     ]
    @ sharded)
