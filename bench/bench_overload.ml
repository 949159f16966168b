(* bench overload: graceful degradation under interest flooding.

   Runs [Tier_attack], the generated ISP tree and tier-classification
   timing attack it shares with bench scale (arity 10, 5 tiers =
   11,111 routers / 1M represented users; --quick: arity 14, 3 tiers =
   211 routers), then arms the robust forwarding plane and sweeps a
   seeded interest-flooding adversary (Workload.Flood) across

     flood intensity x PIT admission policy x link-queue depth.

   Per point, one simulation run with everything scheduled up front:

   - warm: one aggregate consumer per access router (Zipf + diurnal);
   - calibration (clean window, before the flood): per-tier RTT
     centroids measured from the adversary host as in bench scale,
     but scheduled ahead of the one run, plus an origin centroid;
   - flood: a host behind the adversary's access router floods
     [prefix/boom/...] — a subnamespace the producer host resolves to
     a handler that never answers, so each interest pins a PIT entry
     along the whole access-to-core path for the full lifetime (the
     unsatisfiable-flood attack);
   - probes: during the flood the adversary probes popular / mid-tail /
     fresh names; ground truth (deepest on-path cache holding the
     name) is read at probe time, the guess is the nearest pre-flood
     centroid, timeouts are classified "origin".  Cache hits at the
     access router survive a full PIT (CS is consulted before
     admission), but anything served deeper needs PIT state at every
     tier the flood is pinning — so attacker accuracy and the
     false-negative rate (cached-on-path probes classified origin)
     degrade as intensity crosses the PIT capacity knee;
   - honest cohort: consumer-private fetches with exponential backoff
     through the same access router, whose strategy runs the
     Random-Cache mimic countermeasure — yielding Random-Cache
     utility (private hits actually served) and the give-up rate
     (retry budgets exhausted);
   - goodput: delivered / issued over all aggregates (global) and
     over the attacked access router's aggregate (edge).

   Expected monotone responses as flood intensity rises, for every
   admission policy (documented here, recorded in BENCH_core.json):
   attacker accuracy and edge goodput fall; false-negative, give-up
   rates rise; Random-Cache utility falls.  Drop_new starves the
   attacked edge fastest (the full table rejects honest newcomers);
   Evict_oldest lets the flood churn every tier's PIT instead.

   Output: a point array merged into BENCH_core.json as its
   "overload" section.  All robust-plane features are opt-in switches flipped
   here; nothing in this bench changes defaults elsewhere. *)

let clock_ns () = Int64.to_float (Monotonic_clock.now ())

type params = {
  req_per_user_per_hour : float;
  warm_ms : float;
  probes : int;
  util_requests : int;
  util_working_set : int;
  pit_capacity : int;
  queue_rate_mbps : float;
}

let params ~quick =
  if quick then
    {
      req_per_user_per_hour = 600.;
      warm_ms = 8_000.;
      probes = 48;
      util_requests = 60;
      util_working_set = 8;
      pit_capacity = 512;
      queue_rate_mbps = 4.;
    }
  else
    {
      req_per_user_per_hour = 60.;
      warm_ms = 10_000.;
      probes = 120;
      util_requests = 120;
      util_working_set = 12;
      pit_capacity = 2048;
      queue_rate_mbps = 4.;
    }

(* Sweep grid: intensities x admission policies at the default queue
   depth, plus a small depth sweep at one congested point.  The two
   policies knee at different intensities: Drop_new starves honest
   newcomers as soon as the table pins full (rate ~ capacity /
   lifetime), while Evict_oldest keeps recycling the flood's own stale
   entries and only collapses once the eviction horizon (capacity /
   rate) drops below the data round-trip — hence the high top rate. *)
let flood_rates = [ 0.; 0.5; 4.; 32. ]
let admission_policies = [ Ndn.Pit.Drop_new; Ndn.Pit.Evict_oldest ]
let default_queue_depth = 32

(* Depth sweep under Evict_oldest: with Drop_new the edge PIT rejects
   the flood before it ever reaches the queued uplinks, so queue depth
   only binds when admission lets the flood traverse. *)
let depth_sweep = [ 8; 128 ]
let depth_sweep_rate = 8.
let depth_sweep_policy = Ndn.Pit.Evict_oldest

(* ------------------------------------------------------------------ *)

module TA = Tier_attack
module TS = Ndn.Topology_spec

type point = {
  flood_per_ms : float;
  policy : Ndn.Pit.admission;
  queue_depth : int;
  accuracy : float;
  fnr : float;  (** -1 when no probe had cached-on-path truth. *)
  cached_truth : int;
  probes_run : int;
  rc_utility : float;
  give_up_rate : float;
  goodput : float;
  edge_goodput : float;
  flood_issued : int;
  flood_nacked : int;
  flood_timeouts : int;
  path_rejections : int;
  path_evictions : int;
  events : int;
  wall_s : float;
}

let run_point ~p ~a ~flood_rate ~policy ~depth () =
  let net = TA.build a in
  let prefix = TA.prefix a and path = a.TA.path in
  let label = TA.label a and node_of = TA.node_of a net in
  (* --- robust plane: finite PITs + NACKs everywhere, queues on the
     adversary path --- *)
  List.iter
    (fun (_, n) -> Ndn.Node.set_nacks_enabled n true)
    (Ndn.Network.nodes net);
  for i = 0 to a.TA.graph.TS.Gen.node_count - 1 do
    Ndn.Node.set_pit_limits (node_of i) ~capacity:p.pit_capacity
      ~admission:policy ()
  done;
  for t = 0 to a.TA.tiers - 2 do
    match
      Ndn.Network.set_link_queue net ~a:(label path.(t))
        ~b:(label path.(t + 1))
        ~rate_mbps:p.queue_rate_mbps ~depth ()
    with
    | Ok () -> ()
    | Error e -> failwith ("bench overload: set_link_queue: " ^ e)
  done;
  (* The producer host resolves [prefix/boom/...] to a handler that
     never answers: longest-prefix match steers the flood there, so
     every flood interest pins PIT state along the whole path for the
     full lifetime. *)
  let producer =
    match Ndn.Network.node net (TS.Gen.producer_label a.TA.decl) with
    | Some n -> n
    | None -> assert false
  in
  let boom = Ndn.Name.append prefix "boom" in
  Ndn.Node.add_producer producer ~prefix:boom (fun _ -> None);

  (* --- honest background: one aggregate per access router --- *)
  let aggregates =
    TA.attach_aggregates ~req_per_user_per_hour:p.req_per_user_per_hour a net
      ~warm_ms:p.warm_ms
  in

  (* --- hosts behind the attacked access router --- *)
  let host name =
    let h = TA.add_host a net name in
    Ndn.Node.set_nacks_enabled h true;
    h
  in
  let adv = host "ov-adv" in
  let flooder = host "ov-flood" in
  let util = host "ov-util" in

  (* Random-Cache mimic on the attacked access router: the honest
     cohort below measures how much cache benefit private consumers
     retain under overload. *)
  let rc =
    Core.Private_router.attach (node_of a.TA.adv_leaf)
      ~rng:(Sim.Rng.create 9091)
      (Core.Private_router.Random_cache_mimic
         {
           kdist = Core.Kdist.uniform_for ~k:10 ~delta:0.5;
           grouping = Core.Grouping.By_namespace 2;
         })
  in

  (* --- calibration (clean window): the tier centroids of
     [Tier_attack], scheduled ahead of the run: each helper plants its
     tier's name, then the adversary times its own fetch of it. *)
  let k = a.TA.tiers in
  let tier = Array.make k Float.infinity in
  let origin = ref Float.infinity in
  let t_plant = 0.28 *. p.warm_ms and t_cal = 0.34 *. p.warm_ms in
  let time_fetch slot name on_rtt =
    Ndn.Node.schedule_app_at adv
      ~time:(t_cal +. (10. *. float_of_int slot))
      (fun () ->
        Ndn.Node.express_interest adv
          ~on_data:(fun ~rtt_ms _ -> on_rtt rtt_ms)
          name)
  in
  for l = 0 to k - 1 do
    let cal = TA.calibration_name a l in
    let helper = node_of (TA.helper_leaf a l) in
    Ndn.Node.schedule_app_at helper
      ~time:(t_plant +. (10. *. float_of_int l))
      (fun () ->
        Ndn.Node.express_interest helper
          ~on_data:(fun ~rtt_ms:_ _ -> ())
          cal);
    time_fetch l cal (fun rtt -> tier.(l) <- rtt)
  done;
  time_fetch k (TA.calibration_name a (-1)) (fun rtt -> origin := rtt);

  (* --- flood --- *)
  let t_flood = 0.45 *. p.warm_ms in
  let flood =
    if flood_rate <= 0. then None
    else begin
      let f = ref None in
      Ndn.Node.schedule_app_at flooder ~time:t_flood (fun () ->
          f :=
            Some
              (Workload.Flood.attach
                 {
                   Workload.Flood.rate_per_ms = flood_rate;
                   scope = None;
                   timeout_ms = Some 2000.;
                 }
                 ~node:flooder ~prefix:boom
                 ~rng:(Sim.Rng.create 4099)
                 ~until:p.warm_ms ()));
      Some f
    end
  in

  (* --- probes during the flood: truth is read when each probe
     leaves, and a timeout is left unclassified until the harvest --- *)
  let results = ref [] in
  let t_probe0 = 0.55 *. p.warm_ms in
  let probe_step = 0.40 *. p.warm_ms /. float_of_int p.probes in
  List.iteri
    (fun i0 name ->
      Ndn.Node.schedule_app_at adv
        ~time:(t_probe0 +. (probe_step *. float_of_int (i0 + 1)))
        (fun () ->
          let truth = TA.ground_truth a net name in
          Ndn.Node.express_interest adv ~timeout_ms:1500.
            ~on_data:(fun ~rtt_ms _ ->
              results := (truth, Some rtt_ms) :: !results)
            ~on_timeout:(fun () -> results := (truth, None) :: !results)
            name))
    (TA.probe_names a ~count:p.probes);

  (* --- honest consumer-private cohort with backoff --- *)
  let give_ups = ref 0 and completed = ref 0 in
  let backoff =
    Ndn.Consumer.backoff ~base_ms:20. ~factor:2. ~jitter:0.3
      (Sim.Rng.create 601)
  in
  let t_util0 = 0.50 *. p.warm_ms in
  let util_step = 0.48 *. p.warm_ms /. float_of_int p.util_requests in
  for i = 1 to p.util_requests do
    let name =
      Ndn.Name.append prefix
        (Printf.sprintf "ov-util-%d" (i mod p.util_working_set))
    in
    Ndn.Node.schedule_app_at util
      ~time:(t_util0 +. (util_step *. float_of_int i))
      (fun () ->
        Ndn.Consumer.fetch util ~max_retries:2 ~backoff
          ~consumer_private:true
          ~on_done:(fun o ->
            incr completed;
            if o.Ndn.Consumer.data = None then incr give_ups)
          name)
  done;

  (* --- run and harvest --- *)
  let t0 = clock_ns () in
  Ndn.Network.run net;
  let wall_s = (clock_ns () -. t0) /. 1e9 in
  let events = Ndn.Network.events_processed net in

  let centroids = { TA.origin = !origin; tier } in
  let classify = function
    | None -> -1 (* timeout: the attacker's only consistent guess *)
    | Some rtt -> TA.classify centroids rtt
  in
  let total = List.length !results in
  let correct =
    List.fold_left
      (fun acc (truth, rtt) -> if classify rtt = truth then acc + 1 else acc)
      0 !results
  in
  let cached_truth =
    List.fold_left
      (fun acc (truth, _) -> if truth >= 0 then acc + 1 else acc)
      0 !results
  in
  let false_negs =
    List.fold_left
      (fun acc (truth, rtt) ->
        if truth >= 0 && classify rtt = -1 then acc + 1 else acc)
      0 !results
  in
  let accuracy =
    if total = 0 then 0. else float_of_int correct /. float_of_int total
  in
  let fnr =
    if cached_truth = 0 then -1.
    else float_of_int false_negs /. float_of_int cached_truth
  in
  let issued, timeouts, edge_issued, edge_timeouts =
    List.fold_left
      (fun (i, t, ei, et) (r, agg) ->
        let ai = Workload.Aggregate.requests_issued agg
        and at = Workload.Aggregate.timeouts agg in
        if r = a.TA.adv_leaf then (i + ai, t + at, ei + ai, et + at)
        else (i + ai, t + at, ei, et))
      (0, 0, 0, 0) aggregates
  in
  let goodput_of issued timeouts =
    if issued = 0 then 1.
    else float_of_int (issued - timeouts) /. float_of_int issued
  in
  let st = Core.Private_router.stats rc in
  let util_total =
    st.Core.Private_router.private_hits_served
    + st.Core.Private_router.private_hits_hidden
  in
  let rc_utility =
    if util_total = 0 then 0.
    else
      float_of_int st.Core.Private_router.private_hits_served
      /. float_of_int util_total
  in
  let give_up_rate =
    if !completed = 0 then 0.
    else float_of_int !give_ups /. float_of_int !completed
  in
  let flood_issued, flood_nacked, flood_timeouts =
    match flood with
    | None -> (0, 0, 0)
    | Some f -> (
      match !f with
      | None -> (0, 0, 0)
      | Some fl ->
        ( Workload.Flood.interests_issued fl,
          Workload.Flood.nacks_received fl,
          Workload.Flood.timeouts fl ))
  in
  let path_rejections = ref 0 and path_evictions = ref 0 in
  Array.iter
    (fun i ->
      let pit = Ndn.Node.pit (node_of i) in
      path_rejections := !path_rejections + Ndn.Pit.rejections pit;
      path_evictions := !path_evictions + Ndn.Pit.evictions pit)
    path;
  {
    flood_per_ms = flood_rate;
    policy;
    queue_depth = depth;
    accuracy;
    fnr;
    cached_truth;
    probes_run = total;
    rc_utility;
    give_up_rate;
    goodput = goodput_of issued timeouts;
    edge_goodput = goodput_of edge_issued edge_timeouts;
    flood_issued;
    flood_nacked;
    flood_timeouts;
    path_rejections = !path_rejections;
    path_evictions = !path_evictions;
    events;
    wall_s;
  }

let point_json pt =
  Printf.sprintf
    "{\"flood_per_ms\": %.2f, \"policy\": \"%s\", \"queue_depth\": %d, \
     \"attacker_accuracy\": %.4f, \"false_negative_rate\": %.4f, \
     \"probes\": %d, \"cached_truth_probes\": %d, \"rc_utility\": %.4f, \
     \"give_up_rate\": %.4f, \"goodput\": %.4f, \"edge_goodput\": %.4f, \
     \"flood_issued\": %d, \"flood_nacked\": %d, \"flood_timeouts\": %d, \
     \"path_pit_rejections\": %d, \"path_pit_evictions\": %d, \
     \"events\": %d, \"wall_s\": %.3f}"
    pt.flood_per_ms
    (Ndn.Pit.admission_to_string pt.policy)
    pt.queue_depth pt.accuracy pt.fnr pt.probes_run pt.cached_truth
    pt.rc_utility pt.give_up_rate pt.goodput pt.edge_goodput pt.flood_issued
    pt.flood_nacked pt.flood_timeouts pt.path_rejections pt.path_evictions
    pt.events pt.wall_s

let run ~quick () =
  Format.printf
    "@.================ Overload: interest flooding vs. the robust plane \
     ================@.";
  let p = params ~quick in
  let a = TA.create ~quick ~name:"overload" ~stem:"ov-" in
  let access = TA.access_routers a in
  Format.printf
    "graph: %d routers, %d access routers, %d represented users; pit cap \
     %d, queue %.1f Mbps@."
    a.TA.graph.TS.Gen.node_count access
    (TA.users_per_edge * access)
    p.pit_capacity p.queue_rate_mbps;
  Format.printf
    "  flood/ms  policy        depth  accuracy   fnr  rc-util  give-up  \
     edge-goodput@.";
  let run_one ~flood_rate ~policy ~depth =
    let pt = run_point ~p ~a ~flood_rate ~policy ~depth () in
    Format.printf
      "  %8.2f  %-12s  %5d    %6.1f%%  %4.2f   %6.1f%%  %6.1f%%        \
       %6.1f%%  (%.1fs)@."
      pt.flood_per_ms
      (Ndn.Pit.admission_to_string pt.policy)
      pt.queue_depth (100. *. pt.accuracy) pt.fnr
      (100. *. pt.rc_utility)
      (100. *. pt.give_up_rate)
      (100. *. pt.edge_goodput)
      pt.wall_s;
    pt
  in
  let grid =
    List.concat_map
      (fun policy ->
        List.map
          (fun flood_rate ->
            run_one ~flood_rate ~policy ~depth:default_queue_depth)
          flood_rates)
      admission_policies
  in
  let depths =
    List.map
      (fun depth ->
        run_one ~flood_rate:depth_sweep_rate ~policy:depth_sweep_policy ~depth)
      depth_sweep
  in
  let points pts = "[" ^ String.concat ", " (List.map point_json pts) ^ "]" in
  Ledger.write "overload"
    [
      ("quick", string_of_bool quick);
      ("routers", string_of_int a.TA.graph.TS.Gen.node_count);
      ("access_routers", string_of_int access);
      ("represented_users", string_of_int (TA.users_per_edge * access));
      ("pit_capacity", string_of_int p.pit_capacity);
      ("queue_rate_mbps", Printf.sprintf "%.1f" p.queue_rate_mbps);
      ("default_queue_depth", string_of_int default_queue_depth);
      ( "monotone",
        "{\"attacker_accuracy\": \"decreasing\", \"false_negative_rate\": \
         \"increasing\", \"rc_utility\": \"decreasing\", \"edge_goodput\": \
         \"decreasing\", \"give_up_rate\": \"increasing\"}" );
      ("points", points grid);
      ("depth_sweep", points depths);
    ]
