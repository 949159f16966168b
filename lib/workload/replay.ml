type private_mode = Per_content of float | Per_request of float

type config = {
  cache_capacity : int;
  eviction : Ndn.Eviction.t;
  policy : Core.Policy.kind;
  grouping : Core.Grouping.t;
  private_mode : private_mode;
  seed : int;
}

let default_config =
  {
    cache_capacity = 8000;
    eviction = Ndn.Eviction.Lru;
    policy = Core.Policy.No_privacy;
    grouping = Core.Grouping.By_content;
    private_mode = Per_content 0.2;
    seed = 99;
  }

type outcome = {
  requests : int;
  observable_hits : int;
  real_hits : int;
  hidden_hits : int;
  private_requests : int;
  evictions : int;
  distinct_contents : int;
}

let observable_hit_rate o =
  if o.requests = 0 then 0.
  else float_of_int o.observable_hits /. float_of_int o.requests

let real_hit_rate o =
  if o.requests = 0 then 0. else float_of_int o.real_hits /. float_of_int o.requests

(* Deterministic per-content privacy coin: a splitmix64 draw keyed by
   content id and seed, so the same content is private in every
   configuration sharing a seed. *)
let content_private ~seed ~fraction content =
  let rng = Sim.Rng.create ((content * 0x9E3779B1) lxor (seed * 0x85EBCA77)) in
  Sim.Rng.bernoulli rng fraction

let replay trace config =
  let rng = Sim.Rng.create config.seed in
  let cs_rng = Sim.Rng.split rng in
  let cs =
    Ndn.Content_store.create ~policy:config.eviction ~rng:cs_rng
      ~capacity:config.cache_capacity ()
  in
  (* ndnlint: allow G1 -- historical stream layout: the policy draws from the root handle between the two splits; reordering the splits or re-deriving would change every replay byte-for-byte *)
  let policy = Core.Policy.create ~grouping:config.grouping ~rng config.policy in
  let request_privacy_rng = Sim.Rng.split rng in
  let is_private content =
    match config.private_mode with
    | Per_content fraction -> content_private ~seed:config.seed ~fraction content
    | Per_request fraction -> Sim.Rng.bernoulli request_privacy_rng fraction
  in
  (* Data objects for catalog contents are interned: replaying 3.2M
     requests must not re-sign a popular object on every re-insertion. *)
  let interned = Hashtbl.create 4096 in
  let data_of content name known =
    match known with
    | Some d -> d
    | None ->
      let d =
        Ndn.Data.create ~producer:"trace-origin" ~key:"trace-origin-key"
          ~payload:"" name
      in
      (* Intern unconditionally, one-timers included, until the table
         holds 300,000 objects; past that, misses are signed afresh. *)
      if Hashtbl.length interned < 300_000 then Hashtbl.add interned content d;
      d
  in
  let observable_hits = ref 0
  and real_hits = ref 0
  and hidden_hits = ref 0
  and private_requests = ref 0 in
  Trace.iter trace ~f:(fun r ->
      (* An interned object carries its content's name already, so
         only a content seen for the first time (or not interned)
         builds, hashes and interns [/trace/c<id>]. *)
      let known = Hashtbl.find_opt interned r.Trace.content in
      let name =
        match known with
        | Some d -> d.Ndn.Data.name
        | None -> Trace.name_of r.Trace.content
      in
      let now = r.Trace.time_s *. 1000. in
      let cached =
        match Ndn.Content_store.lookup cs ~now ~exact:true name with
        | Some _ -> true
        | None -> false
      in
      let priv = is_private r.Trace.content in
      if priv then incr private_requests;
      if cached then incr real_hits;
      let out =
        Core.Policy.on_request policy ~name ~is_private:priv ~cached
      in
      (match out with
      | Core.Random_cache.Hit -> incr observable_hits
      | Core.Random_cache.Miss -> if cached then incr hidden_hits);
      if not cached then
        (* Fetched from upstream and cached (the router caches all
           content, per Section VII). *)
        Ndn.Content_store.insert cs ~now (data_of r.Trace.content name known) ());
  let counters = Ndn.Content_store.counters cs in
  {
    requests = Trace.length trace;
    observable_hits = !observable_hits;
    real_hits = !real_hits;
    hidden_hits = !hidden_hits;
    private_requests = !private_requests;
    evictions = counters.Ndn.Content_store.evictions;
    distinct_contents = Trace.distinct_contents trace;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "requests=%d observable-hit-rate=%.2f%% real-hit-rate=%.2f%% hidden=%d \
     private=%d evictions=%d distinct=%d"
    o.requests
    (100. *. observable_hit_rate o)
    (100. *. real_hit_rate o)
    o.hidden_hits o.private_requests o.evictions o.distinct_contents
