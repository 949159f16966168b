(* Sim.Shard determinism battery: the tentpole guarantee is that
   sharding a network over K engine domains changes wall-clock only —
   traces, counters and attack metrics are byte-identical for every K.

   - bare-Shard unit tests: the lookahead window protocol (a
     cross-shard message never lands in a window its destination
     already executed), the disconnected fast path, and the
     non-positive-lookahead refusal;
   - campaign identity: the paper's LAN timing attack (clean and under
     a fault schedule covering every fault kind) renders byte-identical
     JSONL traces and identical accuracy/timeout/FNR metrics for
     K in {1, 2, 3, 8};
   - generated topologies: tree / Watts-Strogatz / Barabasi-Albert
     graphs driven by aggregate consumers, byte-identical across shard
     counts (qcheck randomizes the graph parameters);
   - "byte-identical" covers every record but [engine.step]: only the
     K = 1 engine emits those, since queue depth and processed count
     are per-engine figures, so [render] drops them;
   - domain budgeting: Sim.Parallel.check_domains and the
     Timing_experiment front door reject trials x shards
     over-subscription. *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let render tr =
  Sim.Trace.render Sim.Trace.Jsonl tr
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (contains_sub ~sub:{|"kind":"engine.step"|} l))
  |> String.concat "\n"

(* --- bare Sim.Shard: window protocol --- *)

(* Shard 0 sends a message at t=5 for delivery at t=15; shard 1's only
   local event sits at t=100.  A correct conservative runtime must
   deliver the message before shard 1 executes t=100 — if the lookahead
   barrier under-synchronized, shard 1 (whose first window would
   otherwise start at 100) could run past 15 before the message exists.
   Both closures execute on shard 1's engine, so the plain ref is
   race-free. *)
let test_lookahead_barrier () =
  let t = Sim.Shard.create ~shards:2 () in
  Sim.Shard.note_min_link_delay t 10.;
  let order = ref [] in
  ignore
    (Sim.Engine.schedule_at (Sim.Shard.engine t 0) ~time:5. (fun () ->
         Sim.Shard.send t ~src:0 ~dst:1 ~time:15. ~key:1 (fun () ->
             order := "msg@15" :: !order)));
  ignore
    (Sim.Engine.schedule_at (Sim.Shard.engine t 1) ~time:100. (fun () ->
         order := "local@100" :: !order));
  Sim.Shard.run t;
  Alcotest.(check (list string))
    "cross-shard delivery ordered before the later local event"
    [ "msg@15"; "local@100" ] (List.rev !order);
  Alcotest.(check (float 0.)) "aligned finish clock" 100. (Sim.Shard.now t);
  Alcotest.(check int) "all three events ran" 3 (Sim.Shard.events_processed t)

(* No registered cross-shard link: the shards are independent streams
   and run sequentially on the calling domain. *)
let test_disconnected_fallback () =
  let t = Sim.Shard.create ~shards:3 () in
  let fired = Array.make 3 nan in
  for i = 0 to 2 do
    let time = 10. *. float_of_int (i + 1) in
    ignore
      (Sim.Engine.schedule_at (Sim.Shard.engine t i) ~time (fun () ->
           fired.(i) <- time))
  done;
  Sim.Shard.run t;
  Alcotest.(check (array (float 0.))) "every shard drained"
    [| 10.; 20.; 30. |] fired;
  Alcotest.(check (float 0.)) "clock = global max" 30. (Sim.Shard.now t)

let test_nonpositive_lookahead_refused () =
  let t = Sim.Shard.create ~shards:2 () in
  Sim.Shard.note_min_link_delay t 5.;
  (* A fault schedule degrading the only cross-shard link to zero
     latency would make the window width zero: refuse to run. *)
  Sim.Shard.note_latency_factor t 0.;
  ignore (Sim.Engine.schedule_at (Sim.Shard.engine t 0) ~time:1. ignore);
  match Sim.Shard.run t with
  | () -> Alcotest.fail "zero lookahead must be refused"
  | exception Failure msg ->
    Alcotest.(check bool) "error names the lookahead" true
      (contains_sub ~sub:"lookahead" msg)

(* An exception inside one shard's event poisons the run: every domain
   stops and the exception resurfaces on the caller. *)
let test_exception_propagates () =
  let t = Sim.Shard.create ~shards:2 () in
  Sim.Shard.note_min_link_delay t 10.;
  ignore
    (Sim.Engine.schedule_at (Sim.Shard.engine t 0) ~time:1. (fun () ->
         failwith "boom"));
  ignore (Sim.Engine.schedule_at (Sim.Shard.engine t 1) ~time:2. ignore);
  match Sim.Shard.run t with
  | () -> Alcotest.fail "the event's exception must re-raise"
  | exception Failure msg ->
    Alcotest.(check string) "original exception resurfaces" "boom" msg

(* --- the LAN timing attack, byte-identical across shard counts --- *)

let lan_campaign ?faults ~shards () =
  Attack.Timing_experiment.run
    ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ~shards ())
    ~contents:6 ~runs:2 ~seed:11 ~jobs:1 ~shards ?faults ~trace:true ()

let check_campaigns_equal label base other =
  let open Attack.Timing_experiment in
  Alcotest.(check string)
    (label ^ ": byte-identical JSONL trace")
    (render base.trace) (render other.trace);
  Alcotest.(check (float 0.))
    (label ^ ": success rate") base.success_rate other.success_rate;
  Alcotest.(check int) (label ^ ": timeouts") base.timeouts other.timeouts;
  Alcotest.(check int)
    (label ^ ": phase count")
    (List.length base.phases)
    (List.length other.phases);
  let fnr r =
    let f = false_negative_rate r in
    if Float.is_nan f then -1. else f
  in
  Alcotest.(check (float 0.)) (label ^ ": FNR") (fnr base) (fnr other)

let test_lan_identity () =
  let base = lan_campaign ~shards:1 () in
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length (render base.Attack.Timing_experiment.trace) > 1000);
  List.iter
    (fun k ->
      check_campaigns_equal
        (Printf.sprintf "shards %d vs 1" k)
        base
        (lan_campaign ~shards:k ()))
    [ 2; 3; 8 ]

(* Every fault kind in one schedule, including a latency_factor < 1
   Link_degrade — the case that must shrink the lookahead window to
   stay conservative. *)
let fault_schedule =
  let open Sim.Fault in
  sort
    [
      { at = 20.; kind = Link_down { a = "U"; b = "R"; dir = Ab } };
      { at = 35.; kind = Link_up { a = "U"; b = "R"; dir = Ab } };
      {
        at = 40.;
        kind =
          Link_degrade
            {
              a = "R";
              b = "P";
              dir = Both;
              loss = 0.1;
              latency_factor = 0.5;
              until = 160.;
            };
      };
      { at = 80.; kind = Node_crash { node = "R"; preserve_cs = false } };
      { at = 120.; kind = Node_restart { node = "R" } };
      { at = 200.; kind = Producer_outage { node = "P"; until = 260. } };
      {
        at = 300.;
        kind = Producer_slowdown { node = "P"; factor = 3.; until = 380. };
      };
    ]

let test_faulted_identity () =
  let base = lan_campaign ~faults:fault_schedule ~shards:1 () in
  Alcotest.(check bool) "faulted campaign has phases" true
    (base.Attack.Timing_experiment.phases <> []);
  List.iter
    (fun k ->
      check_campaigns_equal
        (Printf.sprintf "faulted, shards %d vs 1" k)
        base
        (lan_campaign ~faults:fault_schedule ~shards:k ()))
    [ 2; 4 ]

(* --- generated topologies with aggregate consumers --- *)

let agg_config =
  {
    Workload.Aggregate.default with
    users = 2_000;
    catalog = 50;
    zipf_s = 0.9;
    diurnal_amplitude = 0.5;
    diurnal_period_ms = 1_500.;
    max_retries = 1;
  }

(* Build the generated graph, hang one aggregate consumer off every
   edge router, run to quiescence; return the rendered trace and the
   (shard-count-invariant) processed-event total. *)
let generated_run spec_text ~shards =
  let module TS = Ndn.Topology_spec in
  let spec =
    match TS.parse_spec spec_text with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec does not parse: %s" e
  in
  let decl =
    match
      List.find_map (function _, TS.Generate_decl d -> Some d | _ -> None) spec
    with
    | Some d -> d
    | None -> Alcotest.fail "no generate directive"
  in
  let tracer = Sim.Trace.create () in
  let topo =
    match TS.build ~seed:5 ~tracer ~shards spec with
    | Ok t -> t
    | Error e -> Alcotest.failf "spec does not build: %s" e
  in
  let net = topo.TS.network in
  let g = TS.Gen.graph_of decl in
  let prefix = TS.Gen.prefix decl in
  let master = Sim.Rng.create 99 in
  List.iter
    (fun i ->
      let rng = Sim.Rng.split master in
      let node =
        match Ndn.Network.node net (TS.Gen.node_label decl g i) with
        | Some n -> n
        | None -> Alcotest.fail "edge router missing"
      in
      ignore
        (Workload.Aggregate.attach agg_config ~node ~prefix ~rng ~until:1_500.
           ()))
    g.TS.Gen.edge_routers;
  Ndn.Network.run net;
  (render tracer, Ndn.Network.events_processed net)

let generated_specs =
  [
    ( "tree",
      "generate tree name=t arity=3 tiers=3 cs=64,32,16 \
       latency=const:2,const:1,const:1 payload=16 seed=9" );
    ("ws", "generate ws name=w n=16 k=4 beta=0.3 cs=32 latency=const:1 seed=9");
    ("ba", "generate ba name=b n=14 m=2 cs=32 latency=const:1 seed=9");
  ]

let test_generated_identity () =
  List.iter
    (fun (label, spec) ->
      let t1, e1 = generated_run spec ~shards:1 in
      Alcotest.(check bool)
        (label ^ ": aggregates generated traffic")
        true
        (String.length t1 > 1000);
      List.iter
        (fun k ->
          let tk, ek = generated_run spec ~shards:k in
          Alcotest.(check string)
            (Printf.sprintf "%s: shards %d trace" label k)
            t1 tk;
          Alcotest.(check int)
            (Printf.sprintf "%s: shards %d events processed" label k)
            e1 ek)
        [ 2; 3; 8 ])
    generated_specs

(* qcheck: random small graphs and shard counts, same invariant.  The
   generator stays tiny (n <= 24) because every case runs the full
   simulation twice. *)
let qcheck_generated_identity =
  let gen =
    QCheck.Gen.(
      let* model = oneofl [ `Tree; `Ws; `Ba ] in
      let* seed = int_range 1 1000 in
      let* k = int_range 2 6 in
      let+ n = int_range 8 24 in
      (model, seed, k, n))
  in
  let print (model, seed, k, n) =
    Printf.sprintf "(%s, seed=%d, shards=%d, n=%d)"
      (match model with `Tree -> "tree" | `Ws -> "ws" | `Ba -> "ba")
      seed k n
  in
  QCheck.Test.make ~count:5 ~name:"generated topology is shard-count-invariant"
    (QCheck.make ~print gen)
    (fun (model, seed, k, n) ->
      let spec =
        match model with
        | `Tree ->
          Printf.sprintf
            "generate tree name=q arity=%d tiers=3 cs=32 latency=const:1 \
             seed=%d"
            (2 + (n mod 3))
            seed
        | `Ws ->
          Printf.sprintf
            "generate ws name=q n=%d k=4 beta=0.2 cs=32 latency=const:1 \
             seed=%d"
            n seed
        | `Ba ->
          Printf.sprintf
            "generate ba name=q n=%d m=2 cs=32 latency=const:1 seed=%d" n seed
      in
      let t1, e1 = generated_run spec ~shards:1 in
      let tk, ek = generated_run spec ~shards:k in
      if t1 <> tk then QCheck.Test.fail_reportf "%s: trace differs" spec;
      if e1 <> ek then
        QCheck.Test.fail_reportf "%s: events %d vs %d" spec e1 ek;
      true)

(* --- domain budgeting: trials x shards --- *)

let test_check_domains () =
  let avail = Sim.Parallel.default_jobs () in
  (match Sim.Parallel.check_domains ~jobs:(2 * avail) ~shards:2 with
  | Error msg ->
    Alcotest.(check bool) "error mentions the budget" true
      (contains_sub ~sub:"domain budget exceeded" msg)
  | Ok () -> Alcotest.fail "jobs x shards over-subscription must be rejected");
  (match Sim.Parallel.check_domains ~jobs:avail ~shards:1 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "jobs alone at the hardware count: %s" msg);
  (* A single axis may exceed the hardware count when asked for
     explicitly — only the product is capped. *)
  (match Sim.Parallel.check_domains ~jobs:1 ~shards:(8 * avail) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "shards alone must be allowed: %s" msg);
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Parallel.check_domains: jobs < 1") (fun () ->
      ignore (Sim.Parallel.check_domains ~jobs:0 ~shards:1))

let test_experiment_rejects_oversubscription () =
  let avail = Sim.Parallel.default_jobs () in
  match
    Attack.Timing_experiment.run
      ~make_setup:(fun ~seed ~tracer ->
        Ndn.Network.lan ~seed ~tracer ~shards:2 ())
      ~contents:2 ~runs:2 ~seed:3 ~jobs:(2 * avail) ~shards:2 ()
  with
  | _ -> Alcotest.fail "over-subscribed campaign must be rejected"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "front door names Timing_experiment" true
      (contains_sub ~sub:"Timing_experiment" msg)

(* Omitting jobs derates it to default_jobs / shards: never raises. *)
let test_experiment_derates_jobs () =
  let r =
    Attack.Timing_experiment.run
      ~make_setup:(fun ~seed ~tracer ->
        Ndn.Network.lan ~seed ~tracer ~shards:2 ())
      ~contents:2 ~runs:2 ~seed:3 ~shards:2 ()
  in
  Alcotest.(check bool) "campaign ran" true
    (Array.length r.Attack.Timing_experiment.hit_samples > 0)

let () =
  Alcotest.run "shard"
    [
      ( "window protocol",
        [
          Alcotest.test_case "lookahead barrier" `Quick test_lookahead_barrier;
          Alcotest.test_case "disconnected fallback" `Quick
            test_disconnected_fallback;
          Alcotest.test_case "non-positive lookahead refused" `Quick
            test_nonpositive_lookahead_refused;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
        ] );
      ( "campaign identity",
        [
          Alcotest.test_case "lan attack across K" `Slow test_lan_identity;
          Alcotest.test_case "faulted lan attack across K" `Slow
            test_faulted_identity;
        ] );
      ( "generated topologies",
        [
          Alcotest.test_case "tree/ws/ba across K" `Slow
            test_generated_identity;
          QCheck_alcotest.to_alcotest qcheck_generated_identity;
        ] );
      ( "domain budget",
        [
          Alcotest.test_case "check_domains" `Quick test_check_domains;
          Alcotest.test_case "experiment rejects over-subscription" `Quick
            test_experiment_rejects_oversubscription;
          Alcotest.test_case "experiment derates jobs" `Quick
            test_experiment_derates_jobs;
        ] );
    ]
