(* Tests for the fault-injection subsystem: Sim.Fault scheduling and
   generators, the Ndn.Network embedding (link state, crash/restart,
   producer outages), the no-dangling-events guarantee, and the
   determinism acceptance criteria — empty schedule is byte-identical
   to no schedule, and a faulted campaign is byte-identical for any
   --jobs. *)

let prefix = Ndn.Name.of_string "/s"

(* consumer C -- router R -- producer P, every link Constant 5 ms. *)
let make_chain ?tracer () =
  let net = Ndn.Network.create ~seed:9 ?tracer () in
  let c = Ndn.Network.add_node net ~caching:false "C" in
  let r = Ndn.Network.add_node net "R" in
  let p = Ndn.Network.add_node net "P" in
  let lat = Sim.Latency.Constant 5. in
  let cf, _ = Ndn.Network.connect net ~latency:lat c r in
  let rf, _ = Ndn.Network.connect net ~latency:lat r p in
  Ndn.Network.route net c ~prefix ~via:cf;
  Ndn.Network.route net r ~prefix ~via:rf;
  Ndn.Node.add_producer p ~prefix (fun i ->
      Some
        (Ndn.Data.create ~producer:"P" ~key:"k" ~payload:"v"
           i.Ndn.Interest.name));
  (net, c, r, p)

let install_exn net schedule =
  match Ndn.Network.install_faults net schedule with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let at time kind = { Sim.Fault.at = time; kind }

(* --- node crash / restart ------------------------------------------- *)

let test_crash_fails_pending_once () =
  let net, c, _, _ = make_chain () in
  let timeouts = ref 0 and datas = ref 0 in
  Ndn.Node.express_interest c
    ~on_data:(fun ~rtt_ms:_ _ -> incr datas)
    ~on_timeout:(fun () -> incr timeouts)
    (Ndn.Name.of_string "/s/a");
  Ndn.Node.crash c;
  Alcotest.(check int) "on_timeout fired at crash time" 1 !timeouts;
  Ndn.Network.run net;
  Alcotest.(check int) "on_timeout fired exactly once" 1 !timeouts;
  Alcotest.(check int) "no data on a crashed node" 0 !datas;
  Alcotest.(check int) "no dangling engine events" 0
    (Sim.Engine.pending (Ndn.Network.engine net))

let test_crash_flushes_cs_and_pit () =
  let net, c, r, _ = make_chain () in
  ignore (Ndn.Network.fetch_rtt net ~from:c (Ndn.Name.of_string "/s/a"));
  ignore (Ndn.Network.fetch_rtt net ~from:c (Ndn.Name.of_string "/s/b"));
  Alcotest.(check bool) "router cached the traffic" true
    (Ndn.Content_store.size (Ndn.Node.content_store r) > 0);
  Ndn.Node.crash r;
  Alcotest.(check int) "CS flushed" 0
    (Ndn.Content_store.size (Ndn.Node.content_store r));
  Alcotest.(check int) "PIT drained" 0 (Ndn.Pit.size (Ndn.Node.pit r));
  Alcotest.(check bool) "down" false (Ndn.Node.is_alive r)

let test_crash_preserve_cs () =
  let net, c, r, _ = make_chain () in
  ignore (Ndn.Network.fetch_rtt net ~from:c (Ndn.Name.of_string "/s/a"));
  let size = Ndn.Content_store.size (Ndn.Node.content_store r) in
  Alcotest.(check bool) "cache warm" true (size > 0);
  Ndn.Node.crash ~preserve_cs:true r;
  Alcotest.(check int) "persistent cache survives the crash" size
    (Ndn.Content_store.size (Ndn.Node.content_store r))

let test_restart_recovers () =
  let net, c, r, _ = make_chain () in
  Ndn.Node.crash r;
  Alcotest.(check bool) "fetch through a dead router fails" true
    (Ndn.Network.fetch_rtt net ~from:c ~timeout_ms:100.
       (Ndn.Name.of_string "/s/a")
    = None);
  Ndn.Node.restart r;
  Alcotest.(check bool) "FIB survives: fetch succeeds after restart" true
    (Ndn.Network.fetch_rtt net ~from:c (Ndn.Name.of_string "/s/a") <> None)

(* --- scheduled link faults ------------------------------------------ *)

let test_link_down_up_window () =
  let net, c, _, _ = make_chain () in
  install_exn net
    [
      at 0. (Sim.Fault.Link_down { a = "C"; b = "R"; dir = Sim.Fault.Both });
      at 100. (Sim.Fault.Link_up { a = "C"; b = "R"; dir = Sim.Fault.Both });
    ];
  let during = ref (Some 0.) and after = ref (Some 0.) in
  let probe result name =
    Ndn.Node.express_interest c ~timeout_ms:50.
      ~on_data:(fun ~rtt_ms _ -> result := Some rtt_ms)
      ~on_timeout:(fun () -> result := None)
      (Ndn.Name.of_string name)
  in
  Ndn.Node.schedule_app_at c ~time:10. (fun () -> probe during "/s/down");
  Ndn.Node.schedule_app_at c ~time:200. (fun () -> probe after "/s/up");
  Ndn.Network.run net;
  Alcotest.(check bool) "probe during outage times out" true (!during = None);
  Alcotest.(check bool) "probe after repair succeeds" true (!after <> None)

let test_degrade_inflates_latency () =
  let net, c, _, _ = make_chain () in
  install_exn net
    [
      at 0.
        (Sim.Fault.Link_degrade
           {
             a = "C";
             b = "R";
             dir = Sim.Fault.Both;
             loss = 0.;
             latency_factor = 4.;
             until = 100.;
           });
    ];
  let during = ref None and after = ref None in
  let probe result name =
    Ndn.Node.express_interest c
      ~on_data:(fun ~rtt_ms _ -> result := Some rtt_ms)
      (Ndn.Name.of_string name)
  in
  Ndn.Node.schedule_app_at c ~time:1. (fun () -> probe during "/s/d");
  Ndn.Node.schedule_app_at c ~time:200. (fun () -> probe after "/s/e");
  Ndn.Network.run net;
  match (!during, !after) with
  | Some slow, Some fast ->
    (* The C–R hop contributes 4×5 ms each way while degraded vs 5 ms
       after the window's own restore event. *)
    Alcotest.(check bool)
      (Printf.sprintf "degraded RTT %g well above restored %g" slow fast)
      true
      (slow > fast +. 25.)
  | _ -> Alcotest.fail "a probe was lost"

let test_producer_outage_window () =
  let net, c, _, _ = make_chain () in
  install_exn net
    [ at 0. (Sim.Fault.Producer_outage { node = "P"; until = 100. }) ];
  let during = ref (Some 0.) and after = ref (Some 0.) in
  let probe result name =
    Ndn.Node.express_interest c ~timeout_ms:60.
      ~on_data:(fun ~rtt_ms _ -> result := Some rtt_ms)
      ~on_timeout:(fun () -> result := None)
      (Ndn.Name.of_string name)
  in
  Ndn.Node.schedule_app_at c ~time:10. (fun () -> probe during "/s/o");
  Ndn.Node.schedule_app_at c ~time:200. (fun () -> probe after "/s/p");
  Ndn.Network.run net;
  Alcotest.(check bool) "silent producer: probe times out" true
    (!during = None);
  Alcotest.(check bool) "production resumes after the window" true
    (!after <> None)

let test_install_rejects_unknown_target () =
  let net, _, _, _ = make_chain () in
  (match
     Ndn.Network.install_faults net
       [ at 5. (Sim.Fault.Node_crash { node = "ghost"; preserve_cs = false }) ]
   with
  | Ok () -> Alcotest.fail "unknown node accepted"
  | Error msg ->
    Alcotest.(check bool) "names the node" true
      (let contains s sub =
         let n = String.length sub and h = String.length s in
         let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       contains msg "ghost"));
  match
    Ndn.Network.install_faults net
      [ at 5. (Sim.Fault.Link_down { a = "C"; b = "P"; dir = Sim.Fault.Both }) ]
  with
  | Ok () -> Alcotest.fail "nonexistent link accepted"
  | Error _ -> ()

(* --- determinism ----------------------------------------------------- *)

(* A fixed workload exercising caches and links, run to completion. *)
let traced_workload ~schedule () =
  let tracer = Sim.Trace.create () in
  let net, c, _, _ = make_chain ~tracer () in
  (match schedule with
  | None -> ()
  | Some s -> install_exn net s);
  for i = 0 to 9 do
    Ndn.Node.schedule_app_at c ~time:(float_of_int i *. 20.) (fun () ->
        Ndn.Node.express_interest c
          ~on_data:(fun ~rtt_ms:_ _ -> ())
          (Ndn.Name.of_string (Printf.sprintf "/s/w/%d" (i mod 4))))
  done;
  Ndn.Network.run net;
  Sim.Trace.render Sim.Trace.Jsonl tracer

let test_empty_schedule_byte_identical () =
  Alcotest.(check string) "install [] changes nothing"
    (traced_workload ~schedule:None ())
    (traced_workload ~schedule:(Some []) ())

let churn_schedule =
  Sim.Fault.sort
    [
      at 40. (Sim.Fault.Node_crash { node = "R"; preserve_cs = false });
      at 90. (Sim.Fault.Node_restart { node = "R" });
      at 120.
        (Sim.Fault.Link_degrade
           {
             a = "U";
             b = "R";
             dir = Sim.Fault.Ab;
             loss = 0.2;
             latency_factor = 2.;
             until = 160.;
           });
    ]

let faulted_campaign ~jobs ~seed =
  let r =
    Attack.Timing_experiment.run
      ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ())
      ~contents:6 ~runs:3 ~seed ~jobs ~trace:true ~faults:churn_schedule ()
  in
  ( r.Attack.Timing_experiment.hit_samples,
    r.Attack.Timing_experiment.miss_samples,
    Sim.Trace.render Sim.Trace.Jsonl r.Attack.Timing_experiment.trace )

let test_faulted_jobs_byte_identical () =
  let h1, m1, t1 = faulted_campaign ~jobs:1 ~seed:13 in
  let h4, m4, t4 = faulted_campaign ~jobs:4 ~seed:13 in
  Alcotest.(check bool) "hit samples identical" true (h1 = h4);
  Alcotest.(check bool) "miss samples identical" true (m1 = m4);
  Alcotest.(check string) "trace bytes identical" t1 t4;
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 0);
  Alcotest.(check bool) "fault events present in trace" true
    (let contains s sub =
       let n = String.length sub and h = String.length s in
       let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains t1 "fault.crash" && contains t1 "fault.restart")

(* --- properties ------------------------------------------------------ *)

let dir_gen =
  QCheck.Gen.oneofl [ Sim.Fault.Ab; Sim.Fault.Ba; Sim.Fault.Both ]

let label_gen = QCheck.Gen.oneofl [ "A"; "B"; "C" ]

let time_gen = QCheck.Gen.float_range 0. 10_000.

let event_gen =
  let open QCheck.Gen in
  let* time = time_gen in
  let* k = int_range 0 6 in
  let+ kind =
    match k with
    | 0 ->
      let* a = label_gen and* b = label_gen and* dir = dir_gen in
      return (Sim.Fault.Link_down { a; b; dir })
    | 1 ->
      let* a = label_gen and* b = label_gen and* dir = dir_gen in
      return (Sim.Fault.Link_up { a; b; dir })
    | 2 ->
      let* a = label_gen and* b = label_gen and* dir = dir_gen in
      let* loss = float_range 0. 1. in
      let* latency_factor = float_range 0.25 8. in
      let* window = float_range 0.001 5_000. in
      return
        (Sim.Fault.Link_degrade
           { a; b; dir; loss; latency_factor; until = time +. window })
    | 3 ->
      let* node = label_gen and* preserve_cs = bool in
      return (Sim.Fault.Node_crash { node; preserve_cs })
    | 4 ->
      let* node = label_gen in
      return (Sim.Fault.Node_restart { node })
    | 5 ->
      let* node = label_gen and* window = float_range 0.001 5_000. in
      return (Sim.Fault.Producer_outage { node; until = time +. window })
    | _ ->
      let* node = label_gen in
      let* factor = float_range 0.25 16. in
      let* window = float_range 0.001 5_000. in
      return
        (Sim.Fault.Producer_slowdown { node; factor; until = time +. window })
  in
  { Sim.Fault.at = time; kind }

let schedule_arb =
  QCheck.make
    ~print:(fun s -> Sim.Fault.print (Sim.Fault.sort s))
    QCheck.Gen.(list_size (int_range 0 12) event_gen)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"generated events pass validate" ~count:200
      schedule_arb
      (fun events ->
        List.for_all (fun e -> Sim.Fault.validate e = Ok ()) events);
    QCheck.Test.make ~name:"install fires in sorted order" ~count:100
      schedule_arb
      (fun events ->
        (* A triangle A-B-C names every generated target except the
           self-links, which no network has. *)
        let schedule =
          Sim.Fault.sort
            (List.filter
               (fun e ->
                 match e.Sim.Fault.kind with
                 | Sim.Fault.Link_down { a; b; _ }
                 | Link_up { a; b; _ }
                 | Link_degrade { a; b; _ } -> a <> b
                 | _ -> true)
               events)
        in
        let tracer = Sim.Trace.create () in
        let net = Ndn.Network.create ~tracer () in
        let node l = Ndn.Network.add_node net l in
        let a = node "A" and b = node "B" and c = node "C" in
        let lat = Sim.Latency.Constant 1. in
        List.iter
          (fun (x, y) -> ignore (Ndn.Network.connect net ~latency:lat x y))
          [ (a, b); (a, c); (b, c) ];
        (match Ndn.Network.install_faults net schedule with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_report msg);
        Ndn.Network.run net;
        (* Each event leaves one record at its own time, naming its
           first endpoint or its node; "restored" records are the
           windowed faults' ends. *)
        let fired =
          Array.to_list (Sim.Trace.events tracer)
          |> List.filter (fun e ->
                 List.mem e.Sim.Trace.kind
                   Sim.Trace.[ Fault_link; Fault_crash; Fault_restart; Fault_producer ]
                 && List.assoc_opt "state" e.Sim.Trace.attrs <> Some "restored")
          |> List.map (fun e -> (e.Sim.Trace.time, e.Sim.Trace.node))
        in
        let target e =
          match e.Sim.Fault.kind with
          | Sim.Fault.Link_down { a; _ } | Link_up { a; _ } | Link_degrade { a; _ } -> a
          | Node_crash { node; _ }
          | Node_restart { node }
          | Producer_outage { node; _ }
          | Producer_slowdown { node; _ } -> node
        in
        fired = List.map (fun e -> (e.Sim.Fault.at, target e)) schedule);
    QCheck.Test.make ~name:"print/parse is a fixpoint" ~count:200 schedule_arb
      (fun events ->
        let schedule = Sim.Fault.sort events in
        Sim.Fault.parse (Sim.Fault.print schedule) = Ok schedule);
    QCheck.Test.make ~name:"random_restarts brackets every crash" ~count:100
      QCheck.(
        quad (int_range 0 1000) (float_range 50. 5_000.)
          (float_range 1. 500.) (float_range 100. 20_000.))
      (fun (seed, mean_uptime_ms, downtime_ms, horizon_ms) ->
        let nodes = [ "A"; "B" ] in
        let schedule =
          Sim.Fault.random_restarts ~rng:(Sim.Rng.create seed) ~nodes
            ~mean_uptime_ms ~downtime_ms ~horizon_ms ()
        in
        let per_node n =
          List.filter_map
            (fun e ->
              match e.Sim.Fault.kind with
              | Sim.Fault.Node_crash { node; _ } when node = n ->
                Some (`Crash e.Sim.Fault.at)
              | Sim.Fault.Node_restart { node } when node = n ->
                Some (`Restart e.Sim.Fault.at)
              | _ -> None)
            schedule
        in
        (* Per node: strict crash/restart alternation starting with a
           crash, every restart exactly downtime after its crash, every
           crash inside the horizon. *)
        List.for_all
          (fun n ->
            let rec check = function
              | [] -> true
              | `Crash c :: `Restart r :: rest ->
                c <= horizon_ms
                && Float.abs (r -. (c +. downtime_ms)) < 1e-6
                && check rest
              | _ -> false
            in
            (* Events come time-sorted; per-node alternation must
               survive the global sort. *)
            check (per_node n))
          nodes);
  ]

let () =
  Alcotest.run "fault"
    [
      ( "crash",
        [
          Alcotest.test_case "pending expression fails once" `Quick
            test_crash_fails_pending_once;
          Alcotest.test_case "flushes CS and PIT" `Quick
            test_crash_flushes_cs_and_pit;
          Alcotest.test_case "preserve_cs keeps the cache" `Quick
            test_crash_preserve_cs;
          Alcotest.test_case "restart recovers" `Quick test_restart_recovers;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "link down/up window" `Quick
            test_link_down_up_window;
          Alcotest.test_case "degrade inflates latency" `Quick
            test_degrade_inflates_latency;
          Alcotest.test_case "producer outage window" `Quick
            test_producer_outage_window;
          Alcotest.test_case "unknown targets rejected" `Quick
            test_install_rejects_unknown_target;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "empty schedule is byte-identical" `Quick
            test_empty_schedule_byte_identical;
          Alcotest.test_case "faulted campaign jobs-invariant" `Quick
            test_faulted_jobs_byte_identical;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
