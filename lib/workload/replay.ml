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

(* [Bytes.get later i = '\001'] when request [i]'s content is requested
   again after it: one backward pass marks each content's requests but
   its last.  The seen-set is a byte per id over the ids' range when
   that is no wider than a few times the trace (generated traces use
   dense ids), and a hash table otherwise (a loaded trace may carry any
   int; [span] wraps negative when the ids span more than [max_int]).
   On fig5-replay the byte set reads a 1.3 MB (4.5 %) lower peak heap
   and 4.5 % more requests/s than the table alone (EXPERIMENTS,
   "Content Store entries without a record"). *)
let later_requests contents =
  let n = Array.length contents in
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun c ->
      lo := Int.min !lo c;
      hi := Int.max !hi c)
    contents;
  let span = !hi - !lo in
  (* Whether [c] was seen already; marks it seen. *)
  let seen =
    if span >= 0 && span < (4 * n) + 1024 then begin
      let ids = Bytes.make (span + 1) '\000' in
      fun c ->
        let k = c - !lo in
        Bytes.get ids k = '\001' || (Bytes.set ids k '\001'; false)
    end
    else begin
      let ids = Hashtbl.create 1024 in
      fun c -> Hashtbl.mem ids c || (Hashtbl.add ids c (); false)
    end
  in
  let later = Bytes.make n '\000' in
  for i = n - 1 downto 0 do
    if seen contents.(i) then Bytes.set later i '\001'
  done;
  later

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
  (* A content's object is interned from its first request until its
     last: replaying 3.2M requests must not re-sign a popular object on
     every re-insertion, and an object nothing will ask for again (most
     contents are one-timers) is left to the cache alone.  Each content
     is signed exactly once. *)
  let later = later_requests trace.Trace.contents in
  let interned = Hashtbl.create 4096 in
  let data_of content name known ~again =
    match known with
    | Some d -> d
    | None ->
      let d =
        Ndn.Data.create ~producer:"trace-origin" ~key:"trace-origin-key"
          ~payload:"" name
      in
      if again then Hashtbl.add interned content d;
      d
  in
  let observable_hits = ref 0
  and real_hits = ref 0
  and hidden_hits = ref 0
  and private_requests = ref 0 in
  (* The loop indexes the columns: a timestamp read from the flat
     [times] array stays unboxed. *)
  let { Trace.times; contents; users = _ } = trace in
  for i = 0 to Trace.length trace - 1 do
    let content = contents.(i) in
    let again = Bytes.get later i = '\001' in
    (* An interned object carries its content's name already, so
       only a content seen for the first time builds, hashes and
       interns [/trace/c<id>]. *)
    let known = Hashtbl.find_opt interned content in
    let name =
      match known with
      | Some d -> d.Ndn.Data.name
      | None -> Trace.name_of content
    in
    let now = times.(i) *. 1000. in
    let cached =
      match Ndn.Content_store.lookup cs ~now ~exact:true name with
      | Some _ -> true
      | None -> false
    in
    let priv = is_private content in
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
      Ndn.Content_store.insert cs ~now (data_of content name known ~again) ();
    if (not again) && Option.is_some known then Hashtbl.remove interned content
  done;
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
