(* The paper's cache-timing attack (Fig 3) on a generated ISP tree, as
   bench scale and bench overload both mount it.

   One [generate tree] directive (arity 10, 5 tiers = 11,111 routers;
   --quick: arity 14, 3 tiers = 211 routers) carries one aggregate
   consumer per access router.  An adversary host sits behind the
   middle access router.  Tier t of the tree spans node ids
   [off.(t), off.(t+1)), and path.(t) is the adversary path's router at
   tier t (path.(tiers - 1) is its access router).

   Each bench calibrates one RTT centroid per serving tier by planting
   [calibration_name l] from [helper_leaf l], whose path joins the
   adversary's exactly at tier l, and timing the adversary's own fetch
   of it; [calibration_name (-1)] is never planted and times the
   origin.  A probe's guess is the nearest centroid ([classify]); its
   truth is the deepest cache on the path holding the name
   ([ground_truth]).  Tier -1 encodes "origin server" in both. *)

module TS = Ndn.Topology_spec

type t = {
  stem : string;  (** Prefix of the calibration and fresh probe names. *)
  spec : TS.spec;
  decl : TS.generate_decl;
  graph : TS.Gen.graph;
  arity : int;
  tiers : int;
  off : int array;
  counts : int array;
  adv_leaf : int;
  path : int array;
}

let users_per_edge = 100
let catalog = 10_000
let zipf_s = 0.85

let spec_text ~quick ~name =
  if quick then
    Printf.sprintf
      "generate tree name=%s arity=14 cs=4096,1024,256 \
       latency=const:8,const:2,const:1 payload=16 seed=7"
      name
  else
    Printf.sprintf
      "generate tree name=%s arity=10 cs=8192,4096,1024,512,256 \
       latency=const:8,const:4,const:2,const:1,const:0.5 payload=16 seed=7"
      name

let create ~quick ~name ~stem =
  let spec =
    match TS.parse_spec (spec_text ~quick ~name) with
    | Ok s -> s
    | Error e -> failwith ("tier attack: bad spec: " ^ e)
  in
  let decl =
    match
      List.find_map (function _, TS.Generate_decl d -> Some d | _ -> None) spec
    with
    | Some d -> d
    | None -> assert false
  in
  let arity, tiers =
    match decl.TS.gen_model with
    | TS.Gen_tree { arity; tiers } -> (arity, List.length tiers)
    | _ -> assert false
  in
  let graph = TS.Gen.graph_of decl in
  let counts = Array.make tiers 1 in
  for t = 1 to tiers - 1 do
    counts.(t) <- counts.(t - 1) * arity
  done;
  let off = Array.make (tiers + 1) 0 in
  for t = 0 to tiers - 1 do
    off.(t + 1) <- off.(t) + counts.(t)
  done;
  let adv_leaf = off.(tiers - 1) + (counts.(tiers - 1) / 2) in
  let parent = TS.Gen.parents graph in
  let path = Array.make tiers adv_leaf in
  for t = tiers - 2 downto 0 do
    path.(t) <- parent.(path.(t + 1))
  done;
  { stem; spec; decl; graph; arity; tiers; off; counts; adv_leaf; path }

let access_routers a = a.counts.(a.tiers - 1)
let prefix a = TS.Gen.prefix a.decl
let label a i = TS.Gen.node_label a.decl a.graph i

let build ?shards a =
  match TS.build ~seed:11 ?shards a.spec with
  | Ok topo -> topo.TS.network
  | Error e -> failwith ("tier attack: build failed: " ^ e)

let node_of a net i =
  match Ndn.Network.node net (label a i) with
  | Some n -> n
  | None -> assert false

(* One aggregate per access router, keyed by its node id, each on its
   own split of one master stream, issuing until [warm_ms] under a
   diurnal cycle of the same period. *)
let attach_aggregates
    ?(req_per_user_per_hour = Workload.Aggregate.default.req_per_user_per_hour) a
    net ~warm_ms =
  let config =
    {
      Workload.Aggregate.default with
      users = users_per_edge;
      req_per_user_per_hour;
      catalog;
      zipf_s;
      diurnal_amplitude = 0.5;
      diurnal_period_ms = warm_ms;
      max_retries = 1;
    }
  in
  let master = Sim.Rng.create 2013 in
  List.map
    (fun i ->
      let rng = Sim.Rng.split master in
      ( i,
        Workload.Aggregate.attach config ~node:(node_of a net i)
          ~prefix:(prefix a) ~rng ~until:warm_ms () ))
    a.graph.TS.Gen.edge_routers

(* A cache-less host 0.25 ms behind the adversary's access router,
   routing the tree's prefix through it. *)
let add_host a net name =
  let h = Ndn.Network.add_node net ~cs_capacity:0 ~caching:false name in
  let face, _ =
    Ndn.Network.connect net ~latency:(Sim.Latency.Constant 0.25) h
      (node_of a net a.adv_leaf)
  in
  Ndn.Network.route net h ~prefix:(prefix a) ~via:face;
  h

(* For tier l, a helper access router whose path joins the adversary's
   exactly at tier l: a leftmost access descendant of a sibling (at
   tier l+1) of the adversary's tier-(l+1) ancestor.  For the access
   tier it is the adversary's own access router. *)
let helper_leaf a l =
  let k = a.tiers in
  if l = k - 1 then a.adv_leaf
  else begin
    let rec pow b = if b = 0 then 1 else a.arity * pow (b - 1) in
    let span = pow (k - 2 - l) in
    let j = (a.adv_leaf - a.off.(k - 1)) / span in
    let j' = if j mod a.arity < a.arity - 1 then j + 1 else j - 1 in
    a.off.(k - 1) + (j' * span)
  end

let calibration_name a l =
  Ndn.Name.append (prefix a)
    (if l < 0 then a.stem ^ "cal-origin" else Printf.sprintf "%scal-%d" a.stem l)

type centroids = { origin : float; tier : float array }

(* The nearest centroid; -1 when the origin's is nearest. *)
let classify c rtt =
  let best = ref (-1) and best_d = ref (Float.abs (rtt -. c.origin)) in
  Array.iteri
    (fun l x ->
      let d = Float.abs (rtt -. x) in
      if d < !best_d then begin
        best := l;
        best_d := d
      end)
    c.tier;
  !best

(* The interest climbs adv → access (tier k-1) → … → core (tier 0) → P,
   so the deepest-tier cache on the path holding the name is the one
   that serves; -1 means it reaches the origin.  Reads the stores
   without touching them. *)
let ground_truth a net name =
  let holds t =
    Ndn.Content_store.mem (Ndn.Node.content_store (node_of a net a.path.(t))) name
  in
  let rec deepest t = if t < 0 then -1 else if holds t then t else deepest (t - 1) in
  deepest (a.tiers - 1)

(* Probe i of 1..count: a third fresh names (origin-served), a third
   head ranks (likely resident in the adversary's own access cache), a
   third Zipf draws over the aggregates' catalog (mid-tail, served
   wherever they last landed). *)
let probe_names a ~count =
  let zipf = Workload.Zipf.create ~n:catalog ~s:zipf_s in
  let rng = Sim.Rng.create 4177 in
  List.init count (fun i0 ->
      let i = i0 + 1 in
      Ndn.Name.append (prefix a)
        (match i mod 3 with
         | 0 -> Printf.sprintf "%sfresh-%d" a.stem i
         | 1 -> string_of_int ((i mod 8) + 1)
         | _ -> string_of_int (Workload.Zipf.sample zipf rng)))
