type countermeasure =
  | No_countermeasure
  | Delay_private of Delay.t
  | Random_cache_mimic of { kdist : Kdist.t; grouping : Grouping.t }

type stats = {
  public_hits : int;
  private_hits_served : int;
  private_hits_hidden : int;
  misses_padded : int;
}

type internal_stats = {
  mutable public_hits : int;
  mutable private_hits_served : int;
  mutable private_hits_hidden : int;
  mutable misses_padded : int;
}

type t = {
  cm : countermeasure;
  marking : Marking.t;
  fetch_delays : float Ndn.Name.Tbl.t;
  hit_counts : int ref Ndn.Name.Tbl.t;
  pending_private : unit Ndn.Name.Tbl.t;
  registry : Ndn.Name.t Ndn.Name.Tbl.t;
  algorithm : Random_cache.t option;
  s : internal_stats;
}

let stats t : stats =
  {
    public_hits = t.s.public_hits;
    private_hits_served = t.s.private_hits_served;
    private_hits_hidden = t.s.private_hits_hidden;
    misses_padded = t.s.misses_padded;
  }

(* Fallback when a hit arrives for content whose fetch we never
   observed (e.g. pre-seeded caches): a conservative, clearly
   miss-like delay. *)
let default_gamma = 20.

let recorded_gamma t name =
  Option.value (Ndn.Name.Tbl.find_opt t.fetch_delays name) ~default:default_gamma

let bump_hits t name =
  match Ndn.Name.Tbl.find_opt t.hit_counts name with
  | Some r ->
    incr r;
    !r
  | None ->
    Ndn.Name.Tbl.replace t.hit_counts name (ref 1);
    1

let group_key t name =
  match t.cm with
  | Random_cache_mimic { grouping; _ } ->
    Grouping.key grouping ~registry:t.registry name
  | No_countermeasure | Delay_private _ -> name

let on_cache_hit t ~now:_ (interest : Ndn.Interest.t) (data : Ndn.Data.t) =
  let verdict =
    Marking.classify t.marking ~name:data.Ndn.Data.name
      ~producer_private:data.Ndn.Data.producer_private
      ~consumer_private:interest.Ndn.Interest.consumer_private
  in
  (* A hidden hit must mimic a miss COMPLETELY: a scope-limited probe
     (the Section III scope=2 oracle) would still receive the delayed
     content and learn it was cached, so such interests take the true
     miss path — the forwarder then drops them when the scope budget
     runs out, exactly as if the content were absent. *)
  let hide () =
    match interest.Ndn.Interest.scope with
    | Some _ ->
      t.s.private_hits_hidden <- t.s.private_hits_hidden + 1;
      Some Ndn.Node.Treat_as_miss
    | None -> None
  in
  match verdict with
  | Marking.Public ->
    t.s.public_hits <- t.s.public_hits + 1;
    Ndn.Node.Respond
  | Marking.Private -> (
    match t.cm with
    | No_countermeasure ->
      t.s.private_hits_served <- t.s.private_hits_served + 1;
      Ndn.Node.Respond
    | Delay_private policy -> (
      match hide () with
      | Some action -> action
      | None ->
        t.s.private_hits_hidden <- t.s.private_hits_hidden + 1;
        let hits_so_far = bump_hits t data.Ndn.Data.name in
        let gamma = recorded_gamma t data.Ndn.Data.name in
        Ndn.Node.Respond_after
          (Delay.hit_delay policy ~fetch_delay:gamma ~hits_so_far))
    | Random_cache_mimic _ -> (
      let algorithm = Option.get t.algorithm in
      match Random_cache.on_request algorithm (group_key t data.Ndn.Data.name) with
      | Random_cache.Hit ->
        t.s.private_hits_served <- t.s.private_hits_served + 1;
        Ndn.Node.Respond
      | Random_cache.Miss -> (
        match hide () with
        | Some action -> action
        | None ->
          t.s.private_hits_hidden <- t.s.private_hits_hidden + 1;
          Ndn.Node.Respond_after (recorded_gamma t data.Ndn.Data.name))))

let should_cache t ~now:_ (data : Ndn.Data.t) ~fetch_delay =
  Ndn.Name.Tbl.replace t.fetch_delays data.Ndn.Data.name fetch_delay;
  (* Producer-declared correlation groups (Section VI's content-id
     field) feed the grouping registry as objects flow through. *)
  (match data.Ndn.Data.content_id with
  | Some id -> Grouping.register_id ~registry:t.registry ~name:data.Ndn.Data.name ~id
  | None -> ());
  (* A new cache residency begins: the first-non-private trigger only
     holds "as long as [the object] remains in R's cache". *)
  Marking.on_evicted t.marking data.Ndn.Data.name;
  (match Ndn.Name.Tbl.find_opt t.hit_counts data.Ndn.Data.name with
  | Some r -> r := 0
  | None -> ());
  true

let note_miss t ~now:_ (interest : Ndn.Interest.t) =
  let name = interest.Ndn.Interest.name in
  if interest.Ndn.Interest.consumer_private then
    Ndn.Name.Tbl.replace t.pending_private name ();
  (* Algorithm 1 counts every forwarded request, hits and misses alike. *)
  match t.algorithm with
  | Some algorithm when interest.Ndn.Interest.consumer_private ->
    ignore (Random_cache.on_request algorithm (group_key t name))
  | Some _ | None -> ()

let forward_delay t ~now:_ (data : Ndn.Data.t) ~fetch_delay =
  let was_pending_private = Ndn.Name.Tbl.mem t.pending_private data.Ndn.Data.name in
  Ndn.Name.Tbl.remove t.pending_private data.Ndn.Data.name;
  let is_private = data.Ndn.Data.producer_private || was_pending_private in
  match t.cm with
  | Delay_private policy when is_private ->
    let pad = Delay.miss_padding policy ~actual_delay:fetch_delay in
    if pad > 0. then t.s.misses_padded <- t.s.misses_padded + 1;
    pad
  | Delay_private _ | No_countermeasure | Random_cache_mimic _ -> 0.

let attach ?tracer node ~rng cm =
  let algorithm =
    match cm with
    | Random_cache_mimic { kdist; _ } ->
      let engine = Ndn.Node.engine node in
      Some
        (Random_cache.create ?tracer ~label:(Ndn.Node.label node)
           ~clock:(fun () -> Sim.Engine.now engine)
           ~kdist ~rng ())
    | No_countermeasure | Delay_private _ -> None
  in
  let t =
    {
      cm;
      marking = Marking.create ();
      fetch_delays = Ndn.Name.Tbl.create 256;
      hit_counts = Ndn.Name.Tbl.create 256;
      pending_private = Ndn.Name.Tbl.create 64;
      registry = Ndn.Name.Tbl.create 64;
      algorithm;
      s =
        {
          public_hits = 0;
          private_hits_served = 0;
          private_hits_hidden = 0;
          misses_padded = 0;
        };
    }
  in
  Ndn.Node.set_strategy node
    {
      Ndn.Node.on_cache_hit = (fun ~now i d -> on_cache_hit t ~now i d);
      should_cache = (fun ~now d ~fetch_delay -> should_cache t ~now d ~fetch_delay);
      note_miss = (fun ~now i -> note_miss t ~now i);
      forward_delay = (fun ~now d ~fetch_delay -> forward_delay t ~now d ~fetch_delay);
    };
  t
