(* The four benchmark workloads.

   Each workload is a deterministic function of the benchmark seed: the
   same seed gives the same inputs and the same simulated outcome, so
   every op of a run must produce the same digest.  An op runs in one
   OCaml domain ([jobs = 1], unsharded legacy networks).

   A workload exposes two things:
   - [setup], one deterministic build of the op's inputs, which
     perfbench.ml times (repeatedly) for [setup_s];
   - [make], which builds a fresh op (untimed) and returns its [run],
     the part perfbench.ml times, plus a [finish] that checks the
     outputs and returns the op's digest. *)

module TS = Ndn.Topology_spec

type digest = {
  events : int;
  requests : int;
  responses : int;
  timeouts : int;
  hits : int;
}

let digest_to_string d =
  Printf.sprintf "events=%d requests=%d responses=%d timeouts=%d hits=%d"
    d.events d.requests d.responses d.timeouts d.hits

type op = {
  run : unit -> unit;
  finish : unit -> digest * string list;
      (** The digest and the paper sanity bounds the op violated. *)
  networks : unit -> Ndn.Network.t list;
      (** Every network the op ran, in build order. *)
}

type t = {
  name : string;
  params : (string * string) list;  (** Recorded in the provenance line. *)
  setup : seed:int -> unit;
  make : seed:int -> tracer:(unit -> Sim.Trace.t) -> op;
      (** [tracer ()] is called once per network the op builds. *)
  producers : string list;  (** Labels of the producer hosts. *)
  payload : int;  (** Producer payload bytes (for the signing re-drive). *)
  pit_lifetime : string -> float;  (** PIT lifetime of a node, by label. *)
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let node_sum nets f =
  sum
    (fun net -> sum (fun (_, n) -> f (Ndn.Node.counters n)) (Ndn.Network.nodes net))
    nets

let cache_responses nets = node_sum nets (fun c -> c.Ndn.Node.cache_responses)

let events_of nets = sum Ndn.Network.events_processed nets

(* ------------------------------------------------------------------ *)
(* fig3-lan: the paper's headline timing-attack campaign.              *)

let fig3_contents = 100
let fig3_runs = 10

let fig3_lan =
  let make ~seed ~tracer =
    let nets = ref [] in
    let make_setup ~seed ~tracer:_ =
      let s = Ndn.Network.lan ~seed ~tracer:(tracer ()) () in
      nets := s.Ndn.Network.net :: !nets;
      s
    in
    let result = ref None in
    let run () =
      result :=
        Some
          (Attack.Timing_experiment.run ~make_setup ~contents:fig3_contents
             ~runs:fig3_runs ~seed ~jobs:1 ())
    in
    let finish () =
      let r = Option.get !result in
      let nets = List.rev !nets in
      let answered =
        Array.length r.Attack.Timing_experiment.hit_samples
        + Array.length r.Attack.Timing_experiment.miss_samples
      in
      let requests = 2 * fig3_contents * fig3_runs in
      let d =
        {
          events = events_of nets;
          requests;
          responses = answered;
          timeouts = r.Attack.Timing_experiment.timeouts;
          hits = cache_responses nets;
        }
      in
      let acc = r.Attack.Timing_experiment.success_rate in
      let bad =
        (if acc >= 0.99 then []
         else [ Printf.sprintf "fig3-lan: balanced accuracy %.4f < 0.99" acc ])
        @
        if answered = requests && d.timeouts = 0 then []
        else
          [
            Printf.sprintf "fig3-lan: %d of %d probes answered, %d timeouts"
              answered requests d.timeouts;
          ]
      in
      (d, bad)
    in
    { run; finish; networks = (fun () -> List.rev !nets) }
  in
  {
    name = "fig3-lan";
    params =
      [
        ("op", "Attack.Timing_experiment.run, Network.lan");
        ("contents", string_of_int fig3_contents);
        ("runs", string_of_int fig3_runs);
        ("jobs", "1");
      ];
    (* The op rebuilds one LAN per run; that construction is its input. *)
    setup =
      (fun ~seed ->
        for r = 0 to fig3_runs - 1 do
          ignore (Ndn.Network.lan ~seed:(seed + r) ())
        done);
    make;
    producers = [ "P" ];
    payload = Ndn.Network.default_producer_config.Ndn.Network.payload_size;
    pit_lifetime = (fun _ -> 4000.);
  }

(* ------------------------------------------------------------------ *)
(* fig5-replay: Section VII trace replay through Random-Cache.         *)

let fig5_requests = 100_000

let fig5_trace_config ~seed =
  { Workload.Ircache.default with Workload.Ircache.requests = fig5_requests; seed }

let fig5_replay_config ~seed =
  let exponential =
    match Core.Kdist.exponential_for ~k:5 ~eps:0.005 ~delta:0.05 with
    | Some kd -> kd
    | None -> failwith "perfbench: exponential Random-Cache parameters infeasible"
  in
  {
    Workload.Replay.default_config with
    Workload.Replay.cache_capacity = 8000;
    policy = Core.Policy.Random_cache exponential;
    private_mode = Workload.Replay.Per_content 0.2;
    seed;
  }

let fig5_digest (o : Workload.Replay.outcome) =
  {
    events = 0;
    requests = o.Workload.Replay.requests;
    responses = o.Workload.Replay.requests;
    timeouts = 0;
    hits = o.Workload.Replay.observable_hits;
  }

let fig5_replay =
  let make ~seed ~tracer:_ =
    let trace = Workload.Ircache.generate (fig5_trace_config ~seed) in
    let config = fig5_replay_config ~seed in
    let outcome = ref None in
    let run () = outcome := Some (Workload.Replay.replay trace config) in
    let finish () =
      let o = Option.get !outcome in
      let d = fig5_digest o in
      let bad =
        if
          o.Workload.Replay.requests = fig5_requests
          && o.Workload.Replay.observable_hits > 0
          && o.Workload.Replay.observable_hits <= o.Workload.Replay.real_hits
        then []
        else [ "fig5-replay: " ^ Format.asprintf "%a" Workload.Replay.pp_outcome o ]
      in
      (d, bad)
    in
    { run; finish; networks = (fun () -> []) }
  in
  {
    name = "fig5-replay";
    params =
      [
        ("op", "Workload.Replay.replay of Workload.Ircache.generate");
        ("requests", string_of_int fig5_requests);
        ("cache", "8000 lru");
        ("policy", "exponential Random-Cache k=5 eps=0.005 delta=0.05");
        ("private", "per-content 0.2");
      ];
    setup = (fun ~seed -> ignore (Workload.Ircache.generate (fig5_trace_config ~seed)));
    make;
    producers = [];
    payload = 0;
    pit_lifetime = (fun _ -> 4000.);
  }

(* ------------------------------------------------------------------ *)
(* Generated-tree workloads share the spec plumbing of bench scale.    *)

let parse_tree spec_text =
  let spec =
    match TS.parse_spec spec_text with
    | Ok s -> s
    | Error e -> failwith ("perfbench: bad spec: " ^ e)
  in
  let decl =
    match
      List.find_map (function _, TS.Generate_decl d -> Some d | _ -> None) spec
    with
    | Some d -> d
    | None -> failwith "perfbench: spec has no generate directive"
  in
  (spec, decl, TS.Gen.graph_of decl)

let build_tree ~seed ~tracer spec =
  match TS.build ~seed ~tracer spec with
  | Ok t -> t.TS.network
  | Error e -> failwith ("perfbench: build failed: " ^ e)

let node_of net decl g i =
  match Ndn.Network.node net (TS.Gen.node_label decl g i) with
  | Some n -> n
  | None -> failwith "perfbench: generated node missing"

(* ------------------------------------------------------------------ *)
(* tree-warm: bench scale's warm phase on a 4-tier generated tree.     *)

(* bench scale's first four tiers with a 120 s warm phase at its
   request rate (a fifth of its 600 s, so an op is short enough to
   repeat many times per run); the tier caches are scaled down with it
   so that the core and tier-1 caches still evict. *)
let tree_spec =
  "generate tree name=scale arity=10 cs=2048,1024,256,128 \
   latency=const:8,const:4,const:2,const:1 payload=16 seed=7"

let tree_warm_ms = 120_000.
let tree_users = 100

let tree_aggregate =
  {
    Workload.Aggregate.default with
    users = tree_users;
    catalog = 10_000;
    zipf_s = 0.85;
    diurnal_amplitude = 0.5;
    diurnal_period_ms = tree_warm_ms;
    (* The Aggregate default: with one retry a few dozen of the 100k
       fetches time out behind collapsed interests; with two, none do. *)
    max_retries = 2;
  }

let tree_parsed = lazy (parse_tree tree_spec)

let tree_build ~seed ~tracer =
  let spec, decl, g = Lazy.force tree_parsed in
  let net = build_tree ~seed ~tracer spec in
  let prefix = TS.Gen.prefix decl in
  let master = Sim.Rng.create (seed + 2013) in
  let aggregates =
    List.map
      (fun i ->
        let rng = Sim.Rng.split master in
        Workload.Aggregate.attach tree_aggregate ~node:(node_of net decl g i)
          ~prefix ~rng ~until:tree_warm_ms ())
      g.TS.Gen.edge_routers
  in
  (net, aggregates)

let tree_warm =
  let make ~seed ~tracer =
    let net, aggregates = tree_build ~seed ~tracer:(tracer ()) in
    let finish () =
      let d =
        {
          events = Ndn.Network.events_processed net;
          requests = sum Workload.Aggregate.requests_issued aggregates;
          responses = sum Workload.Aggregate.responses aggregates;
          timeouts = sum Workload.Aggregate.timeouts aggregates;
          hits = cache_responses [ net ];
        }
      in
      let bad =
        if d.timeouts = 0 && d.requests > 0 && d.responses = d.requests then []
        else [ "tree-warm: failed fetches: " ^ digest_to_string d ]
      in
      (d, bad)
    in
    {
      run = (fun () -> Ndn.Network.run net);
      finish;
      networks = (fun () -> [ net ]);
    }
  in
  let _, decl, g = Lazy.force tree_parsed in
  let lifetime = TS.Gen.interest_lifetime_ms decl g in
  {
    name = "tree-warm";
    params =
      [
        ("op", "Topology_spec.build + Workload.Aggregate warm phase");
        ("spec", tree_spec);
        ("routers", string_of_int g.TS.Gen.node_count);
        ("aggregates", string_of_int (List.length g.TS.Gen.edge_routers));
        ("users_per_aggregate", string_of_int tree_users);
        ("warm_ms", Printf.sprintf "%.0f" tree_warm_ms);
      ];
    setup = (fun ~seed -> ignore (tree_build ~seed ~tracer:Sim.Trace.disabled));
    make;
    producers = [ TS.Gen.producer_label decl ];
    payload = decl.TS.gen_payload;
    pit_lifetime = (fun _ -> lifetime);
  }

(* ------------------------------------------------------------------ *)
(* flood-overload: the bench overload --quick point (drop-new PIT 512,
   queue depth 32 at 4 Mb/s, flood 4/ms) without its attacker probes. *)

let flood_spec =
  "generate tree name=overload arity=14 cs=4096,1024,256 \
   latency=const:8,const:2,const:1 payload=16 seed=7"

let flood_warm_ms = 4_000.
let flood_rate = 4.
let flood_pit_capacity = 512
let flood_queue_depth = 32
let flood_queue_mbps = 4.
let flood_util_requests = 60
let flood_util_working_set = 8

let flood_aggregate =
  {
    Workload.Aggregate.default with
    users = 100;
    req_per_user_per_hour = 600.;
    catalog = 10_000;
    zipf_s = 0.85;
    diurnal_amplitude = 0.5;
    diurnal_period_ms = flood_warm_ms;
    max_retries = 1;
  }

let flood_parsed = lazy (parse_tree flood_spec)

type flood_parts = {
  fnet : Ndn.Network.t;
  aggregates : (int * Workload.Aggregate.t) list;
  adv_leaf : int;
  flood : Workload.Flood.t option ref;
  util_done : int ref;
  util_gave_up : int ref;
}

let flood_build ~seed ~tracer =
  let spec, decl, g = Lazy.force flood_parsed in
  let net = build_tree ~seed ~tracer spec in
  let node i = node_of net decl g i in
  let label i = TS.Gen.node_label decl g i in
  let prefix = TS.Gen.prefix decl in
  let k = 3 in
  let edge = Array.of_list g.TS.Gen.edge_routers in
  let adv_leaf = edge.(Array.length edge / 2) in
  List.iter (fun (_, n) -> Ndn.Node.set_nacks_enabled n true) (Ndn.Network.nodes net);
  for i = 0 to g.TS.Gen.node_count - 1 do
    Ndn.Node.set_pit_limits (node i) ~capacity:flood_pit_capacity
      ~admission:Ndn.Pit.Drop_new ()
  done;
  let parent = TS.Gen.parents g in
  let path = Array.make k adv_leaf in
  for t = k - 2 downto 0 do
    path.(t) <- parent.(path.(t + 1))
  done;
  for t = 0 to k - 2 do
    match
      Ndn.Network.set_link_queue net ~a:(label path.(t)) ~b:(label path.(t + 1))
        ~rate_mbps:flood_queue_mbps ~depth:flood_queue_depth ()
    with
    | Ok () -> ()
    | Error e -> failwith ("perfbench: set_link_queue: " ^ e)
  done;
  let producer =
    match Ndn.Network.node net (TS.Gen.producer_label decl) with
    | Some n -> n
    | None -> failwith "perfbench: producer missing"
  in
  (* An origin handler that never answers: flood interests pin PIT
     entries along the whole path for their full lifetime. *)
  let boom = Ndn.Name.append prefix "boom" in
  Ndn.Node.add_producer producer ~prefix:boom (fun _ -> None);
  let master = Sim.Rng.create (seed + 2013) in
  let aggregates =
    List.map
      (fun i ->
        let rng = Sim.Rng.split master in
        ( i,
          Workload.Aggregate.attach flood_aggregate ~node:(node i) ~prefix ~rng
            ~until:flood_warm_ms () ))
      g.TS.Gen.edge_routers
  in
  let access = node adv_leaf in
  let host name =
    let h = Ndn.Network.add_node net ~cs_capacity:0 ~caching:false name in
    let face, _ = Ndn.Network.connect net ~latency:(Sim.Latency.Constant 0.25) h access in
    Ndn.Network.route net h ~prefix ~via:face;
    Ndn.Node.set_nacks_enabled h true;
    h
  in
  let flooder = host "ov-flood" in
  let util = host "ov-util" in
  ignore
    (Core.Private_router.attach access
       ~rng:(Sim.Rng.create (seed + 9091))
       (Core.Private_router.Random_cache_mimic
          {
            kdist = Core.Kdist.uniform_for ~k:10 ~delta:0.5;
            grouping = Core.Grouping.By_namespace 2;
          }));
  let flood = ref None in
  Ndn.Node.schedule_app_at flooder ~time:(0.45 *. flood_warm_ms) (fun () ->
      flood :=
        Some
          (Workload.Flood.attach
             { Workload.Flood.rate_per_ms = flood_rate; scope = None; timeout_ms = Some 2000. }
             ~node:flooder ~prefix:boom
             ~rng:(Sim.Rng.create (seed + 4099))
             ~until:flood_warm_ms ()));
  let util_done = ref 0 and util_gave_up = ref 0 in
  let backoff =
    Ndn.Consumer.backoff ~base_ms:20. ~factor:2. ~jitter:0.3 (Sim.Rng.create (seed + 601))
  in
  let t0 = 0.50 *. flood_warm_ms in
  let step = 0.48 *. flood_warm_ms /. float_of_int flood_util_requests in
  for i = 1 to flood_util_requests do
    let name =
      Ndn.Name.append prefix (Printf.sprintf "ov-util-%d" (i mod flood_util_working_set))
    in
    Ndn.Node.schedule_app_at util ~time:(t0 +. (step *. float_of_int i)) (fun () ->
        Ndn.Consumer.fetch util ~max_retries:2 ~backoff ~consumer_private:true
          ~on_done:(fun o ->
            incr util_done;
            if o.Ndn.Consumer.data = None then incr util_gave_up)
          name)
  done;
  { fnet = net; aggregates; adv_leaf; flood; util_done; util_gave_up }

let flood_overload =
  let make ~seed ~tracer =
    let p = flood_build ~seed ~tracer:(tracer ()) in
    let finish () =
      let aggs = List.map snd p.aggregates in
      let issued, nacked, flood_timeouts =
        match !(p.flood) with
        | Some f ->
          ( Workload.Flood.interests_issued f,
            Workload.Flood.nacks_received f,
            Workload.Flood.timeouts f )
        | None -> (0, 0, 0)
      in
      let d =
        {
          events = Ndn.Network.events_processed p.fnet;
          requests = sum Workload.Aggregate.requests_issued aggs + issued;
          responses = sum Workload.Aggregate.responses aggs;
          timeouts = sum Workload.Aggregate.timeouts aggs + flood_timeouts + nacked;
          hits = cache_responses [ p.fnet ];
        }
      in
      let rejections =
        sum (fun (_, n) -> Ndn.Pit.rejections (Ndn.Node.pit n)) (Ndn.Network.nodes p.fnet)
      in
      let edge_issued, edge_timeouts =
        match List.assoc_opt p.adv_leaf p.aggregates with
        | Some a -> (Workload.Aggregate.requests_issued a, Workload.Aggregate.timeouts a)
        | None -> (0, 0)
      in
      let edge_goodput =
        if edge_issued = 0 then 1.
        else float_of_int (edge_issued - edge_timeouts) /. float_of_int edge_issued
      in
      let bad =
        (if rejections > 0 then [] else [ "flood-overload: no PIT rejections" ])
        @ (if edge_goodput < 1. then []
           else [ Printf.sprintf "flood-overload: edge goodput %.4f is not < 1" edge_goodput ])
        @
        if !(p.util_done) = flood_util_requests then []
        else [ Printf.sprintf "flood-overload: %d of %d cohort fetches ended" !(p.util_done) flood_util_requests ]
      in
      (d, bad)
    in
    {
      run = (fun () -> Ndn.Network.run p.fnet);
      finish;
      networks = (fun () -> [ p.fnet ]);
    }
  in
  let _, decl, g = Lazy.force flood_parsed in
  let lifetime = TS.Gen.interest_lifetime_ms decl g in
  {
    name = "flood-overload";
    params =
      [
        ("op", "bench overload --quick point without attacker probes");
        ("spec", flood_spec);
        ("routers", string_of_int g.TS.Gen.node_count);
        ("pit", Printf.sprintf "drop-new capacity %d" flood_pit_capacity);
        ("queue", Printf.sprintf "depth %d at %.0f Mb/s" flood_queue_depth flood_queue_mbps);
        ("flood_per_ms", Printf.sprintf "%.0f" flood_rate);
        ("warm_ms", Printf.sprintf "%.0f" flood_warm_ms);
      ];
    setup = (fun ~seed -> ignore (flood_build ~seed ~tracer:Sim.Trace.disabled));
    make;
    producers = [ TS.Gen.producer_label decl ];
    payload = decl.TS.gen_payload;
    (* Generated routers and the producer host use the scaled lifetime;
       the extra hosts use the stack default. *)
    pit_lifetime =
      (fun label -> if String.length label > 3 && String.sub label 0 3 = "ov-" then 4000. else lifetime);
  }

let all = [ fig3_lan; fig5_replay; tree_warm; flood_overload ]

let find name = List.find_opt (fun w -> w.name = name) all
