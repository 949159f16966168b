type placement = No_defence | Edge_only | Core_only | Everywhere

let placement_label = function
  | No_defence -> "no defence"
  | Edge_only -> "edge routers only"
  | Core_only -> "core router only"
  | Everywhere -> "every router"

let all_placements = [ No_defence; Edge_only; Core_only; Everywhere ]

type result = {
  placement : placement;
  attack_success : float;
  remote_hit_latency_ms : float;
  remote_miss_latency_ms : float;
}

let defend node ~seed =
  ignore
    (Core.Private_router.attach node ~rng:(Sim.Rng.create seed)
       (Core.Private_router.Delay_private Core.Delay.Content_specific))

let make_setup placement ~seed =
  let producer =
    { Ndn.Network.default_producer_config with producer_private = true }
  in
  let setup = Ndn.Network.edge_core ~seed ~producer () in
  let edges = [ setup.Ndn.Network.edge1; setup.Ndn.Network.edge2 ] in
  (match placement with
  | No_defence -> ()
  | Edge_only -> List.iteri (fun i e -> defend e ~seed:(seed + 100 + i)) edges
  | Core_only -> defend setup.Ndn.Network.core ~seed:(seed + 200)
  | Everywhere ->
    List.iteri (fun i e -> defend e ~seed:(seed + 100 + i)) edges;
    defend setup.Ndn.Network.core ~seed:(seed + 200));
  setup

let fetch setup ~from name =
  Ndn.Network.fetch_rtt setup.Ndn.Network.ecnet ~from name

let run placement ?(trials = 40) () =
  let seed = 17 in
  let hit_samples = ref [] and miss_samples = ref [] in
  let remote_hits = Sim.Stats.create () and remote_misses = Sim.Stats.create () in
  for trial = 0 to trials - 1 do
    let setup = make_setup placement ~seed:(seed + trial) in
    let name kind = Ndn.Name.of_string (Printf.sprintf "/prod/%s/%d" kind trial) in
    (* Victim activity the local adversary wants to detect. *)
    ignore (fetch setup ~from:setup.Ndn.Network.victim (name "warm"));
    (* Adversary probes through edge1. *)
    (match fetch setup ~from:setup.Ndn.Network.local_adversary (name "warm") with
    | Some rtt -> hit_samples := rtt :: !hit_samples
    | None -> ());
    (match fetch setup ~from:setup.Ndn.Network.local_adversary (name "cold") with
    | Some rtt -> miss_samples := rtt :: !miss_samples
    | None -> ());
    (* Honest remote consumer: content cached at the core (warmed by
       the victim's fetch) vs a genuinely cold object. *)
    (match fetch setup ~from:setup.Ndn.Network.remote_consumer (name "warm") with
    | Some rtt -> Sim.Stats.add remote_hits rtt
    | None -> ());
    match fetch setup ~from:setup.Ndn.Network.remote_consumer (name "fresh") with
    | Some rtt -> Sim.Stats.add remote_misses rtt
    | None -> ()
  done;
  let attack_success =
    Detector.success_rate
      ~hit_samples:(Array.of_list !hit_samples)
      ~miss_samples:(Array.of_list !miss_samples)
      ()
  in
  {
    placement;
    attack_success;
    remote_hit_latency_ms = Sim.Stats.mean remote_hits;
    remote_miss_latency_ms = Sim.Stats.mean remote_misses;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%-18s attack=%5.1f%%  remote core-hit=%6.2fms  remote miss=%6.2fms"
    (placement_label r.placement)
    (100. *. r.attack_success)
    r.remote_hit_latency_ms r.remote_miss_latency_ms
