(* Attack accuracy and Random-Cache utility under router churn.

   The paper's evaluation assumes a stable network; this sweep asks
   what a restart-prone first-hop router does to both sides of the
   privacy trade-off: every reboot flushes R's Content Store, which
   (a) erases the adversary's signal — warm probes issued after a
   flush look cold, i.e. false negatives — and (b) erases the cache
   the honest population was benefiting from, so Random-Cache utility
   degrades too.  Schedules come from Sim.Fault.random_restarts, so a
   (seed, mean-uptime) pair names the churn process exactly and the
   sweep is reproducible for any --jobs. *)

let section fmt = Format.printf fmt

let horizon_ms = 20_000.
let downtime_ms = 400.
let router = "R"

(* Mean uptimes swept, in ms; [infinity] is the stable baseline. *)
let mean_uptimes = [ infinity; 8_000.; 4_000.; 2_000.; 1_000. ]

let schedule_for ?(nodes = [ router ]) ~seed mean =
  if Float.is_finite mean then
    Sim.Fault.random_restarts
      ~rng:(Sim.Rng.create seed)
      ~nodes ~mean_uptime_ms:mean ~downtime_ms ~horizon_ms ()
  else Sim.Fault.empty

let crashes schedule =
  List.length
    (List.filter
       (fun e ->
         match e.Sim.Fault.kind with Sim.Fault.Node_crash _ -> true | _ -> false)
       schedule)

let fmt_mean mean =
  if Float.is_finite mean then Printf.sprintf "%6.0f" mean else "  none"

let pct x =
  if Float.is_nan x then "    -" else Printf.sprintf "%5.1f%%" (100. *. x)

(* --- attacker accuracy / false-negative rate ------------------------- *)

let attack_sweep ~label ~make_setup ~contents ~runs ~jobs =
  section "@.%s: attacker vs. router restart rate@." label;
  section
    "  mean-uptime(ms)  crashes  distinguisher  false-negative-rate@.";
  List.iteri
    (fun i mean ->
      let faults = schedule_for ~seed:(0x5eed + i) mean in
      let r =
        Attack.Timing_experiment.run ~make_setup ~contents ~runs ~jobs ~faults
          ()
      in
      let fnr =
        if faults = Sim.Fault.empty then 0.
        else Attack.Timing_experiment.false_negative_rate r
      in
      section "  %15s  %7d  %13s  %19s@." (fmt_mean mean) (crashes faults)
        (pct r.Attack.Timing_experiment.success_rate)
        (pct fnr))
    mean_uptimes

(* --- Random-Cache utility -------------------------------------------- *)

(* One honest consumer cycles through a fixed working set behind
   Random-Cache routers (Uniform, k=10, delta=0.5, namespace grouping)
   — Algorithm 1 runs on every caching router of the consumer's path,
   as a deployment would, and the churn process restarts each of them
   independently.  Utility = fraction of requests some router served
   as a revealed cache hit; churn lowers it because every flush forces
   the working set back through the miss path (and through fresh
   thresholds). *)
let utility_run ~make_setup ~routers ~faults ~working_set ~requests run =
  let setup =
    make_setup ~seed:(211 + run) ~tracer:Sim.Trace.disabled
  in
  let net = setup.Ndn.Network.net in
  let prs =
    List.map
      (fun label ->
        match Ndn.Network.node net label with
        | Some n ->
          Core.Private_router.attach n
            ~rng:(Ndn.Network.rng net)
            (Core.Private_router.Random_cache_mimic
               {
                 kdist = Core.Kdist.uniform_for ~k:10 ~delta:0.5;
                 grouping = Core.Grouping.By_namespace 2;
               })
        | None -> failwith ("utility_run: topology has no router " ^ label))
      routers
  in
  (match Ndn.Network.install_faults net faults with
  | Ok () -> ()
  | Error msg -> failwith ("utility_run: " ^ msg));
  let user = setup.Ndn.Network.user in
  let names =
    Array.init working_set (fun i ->
        Ndn.Name.of_string (Printf.sprintf "/prod/pop/%d" i))
  in
  let step = horizon_ms /. float_of_int requests in
  for i = 0 to requests - 1 do
    Ndn.Node.schedule_app_at user ~time:(float_of_int i *. step) (fun () ->
        Ndn.Node.express_interest user
          ~on_data:(fun ~rtt_ms:_ _ -> ())
          names.(i mod working_set))
  done;
  Ndn.Network.run net;
  let served, hidden =
    List.fold_left
      (fun (s, h) pr ->
        let st = Core.Private_router.stats pr in
        ( s + st.Core.Private_router.private_hits_served,
          h + st.Core.Private_router.private_hits_hidden ))
      (0, 0) prs
  in
  (served, hidden, requests)

let utility_sweep ~label ~make_setup ~routers ~runs ~jobs =
  let working_set = 25 and requests = 400 in
  section
    "@.%s: Random-Cache (uniform k=10 delta=0.5) utility vs. restart rate@."
    label;
  section
    "  (%d requests over a %d-name working set per run, %d runs; Algorithm \
     1 on %s)@."
    requests working_set runs
    (String.concat ", " routers);
  section "  mean-uptime(ms)  crashes  hits-served  hits-hidden  utility@.";
  List.iteri
    (fun i mean ->
      let faults = schedule_for ~nodes:routers ~seed:(0xca5e + i) mean in
      let per_run =
        Sim.Parallel.map ~jobs runs
          (utility_run ~make_setup ~routers ~faults ~working_set ~requests)
      in
      let served, hidden, total =
        Array.fold_left
          (fun (s, h, t) (s', h', t') -> (s + s', h + h', t + t'))
          (0, 0, 0) per_run
      in
      section "  %15s  %7d  %11d  %11d  %6s@." (fmt_mean mean)
        (crashes faults) served hidden
        (pct (float_of_int served /. float_of_int total)))
    mean_uptimes

let run ~scale ~jobs () =
  section
    "@.================ Chaos: attack accuracy and cache utility under \
     churn ================@.";
  section
    "restart process: exponential uptimes, %.0f ms reboot, %.0f ms horizon \
     (Sim.Fault.random_restarts on %s)@."
    downtime_ms horizon_ms router;
  let contents = 25 * scale and runs = 2 * scale in
  attack_sweep ~label:"LAN"
    ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ())
    ~contents ~runs ~jobs;
  attack_sweep ~label:"WAN"
    ~make_setup:(fun ~seed ~tracer -> Ndn.Network.wan ~seed ~tracer ())
    ~contents ~runs ~jobs;
  let private_producer =
    { Ndn.Network.default_producer_config with producer_private = true }
  in
  utility_sweep ~label:"LAN"
    ~make_setup:(fun ~seed ~tracer ->
      Ndn.Network.lan ~seed ~tracer ~producer:private_producer ())
    ~routers:[ router ] ~runs ~jobs;
  (* In the WAN topology the user reaches R through a caching
     intermediate hop, which serves the repeats — so it runs
     Algorithm 1 (and suffers churn) too. *)
  utility_sweep ~label:"WAN"
    ~make_setup:(fun ~seed ~tracer ->
      Ndn.Network.wan ~seed ~tracer ~producer:private_producer ())
    ~routers:[ "U-hop1"; router ] ~runs ~jobs
