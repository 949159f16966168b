(* One direction of a link.  [loss] and [latency_factor] start at their
   base values and are perturbed by fault injection; a restore resets
   them to base.  The hot-path invariant: with no faults ever applied,
   [up = true], [loss = base_loss] and [latency_factor = 1.] — so the
   delivery code below draws exactly the same RNG stream as it would
   without any fault machinery (multiplying a latency by 1.0 is an
   exact float identity).  [rng] is the direction's own generator: its
   draw sequence depends only on this direction's send history, which
   no partition of the nodes into shards can change. *)
type link_dir = {
  rng : Sim.Rng.t;
  base_loss : float;
  mutable up : bool;
  mutable loss : float;
  mutable latency_factor : float;
  (* Transmission-queue state.  [q_rate] is the serialization rate in
     bytes per millisecond; [<= 0.] (the default) means "no queue":
     none of these fields is ever read on the delivery path.  With a
     rate set, each offered packet serializes for [size / q_rate] ms
     behind the packets already queued ([busy_until]); at most
     [q_depth] packets may be backlogged, the rest are dropped at the
     tail. *)
  mutable q_rate : float;
  mutable q_depth : int;
  mutable busy_until : float;
  mutable qlen : int;
}

type link = {
  l_a : string;
  l_b : string;
  ab : link_dir;  (** The [l_a] → [l_b] direction. *)
  ba : link_dir;
}

(* Node and link collections are kept twice: a reverse-order list for
   creation-order iteration (reversed on demand) and a hash index for
   O(1) lookup.  Generated ISP-scale topologies create tens of
   thousands of nodes and links; the previous append-to-the-end lists
   made construction quadratic and every label/link lookup linear.
   [next_sid] is the creation-order node counter that feeds every
   node's partition-invariant event-key space. *)
type t = {
  sh : Sim.Shard.t;
  mutable next_sid : int;
  rng : Sim.Rng.t;
  mutable nodes_rev : (string * Node.t) list;  (* reverse creation order *)
  node_tbl : (string, Node.t) Hashtbl.t;
  (* Keyed by the (l_a, l_b) orientation of [connect]; first link wins
     for a duplicate pair, matching the old first-match list scan. *)
  link_tbl : (string * string, link) Hashtbl.t;
}

let create ?(seed = 42) ?(tracer = Sim.Trace.disabled) ?(shards = 1) () =
  {
    (* Nodes emit into the partition's per-shard stitch tracers, which
       feed [tracer]. *)
    sh = Sim.Shard.create ~tracer ~shards ();
    next_sid = 0;
    rng = Sim.Rng.create seed;
    nodes_rev = [];
    node_tbl = Hashtbl.create 64;
    link_tbl = Hashtbl.create 64;
  }

let engine t = Sim.Shard.engine t.sh 0
let rng t = t.rng
let now t = Sim.Shard.now t.sh
let nodes t = List.rev t.nodes_rev
let node t label = Hashtbl.find_opt t.node_tbl label

let set_stall_watchdog t ?stall_ms ~clock_ms () =
  Sim.Shard.set_watchdog t.sh ?stall_ms ~clock_ms ()

let add_node t ?(cs_capacity = 0) ?cs_policy ?pit_lifetime_ms ?forwarding_delay
    ?honor_scope ?caching label =
  let shard = Sim.Shard.assign t.sh label in
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let n =
    Node.create
      (Sim.Shard.engine t.sh shard)
      ~rng:(Sim.Rng.split t.rng) ~label
      ~tracer:(Sim.Shard.tracer t.sh shard)
      ~cs_capacity ?cs_policy ?pit_lifetime_ms ?forwarding_delay ?honor_scope
      ?caching ~sid ~shard ()
  in
  t.nodes_rev <- (label, n) :: t.nodes_rev;
  (* First node wins for a duplicate label, like the old assoc-list scan. *)
  if not (Hashtbl.mem t.node_tbl label) then Hashtbl.add t.node_tbl label n;
  n

(* Cross-shard packets re-intern their hash-consed name on the
   receiving domain, restoring the physical-equality fast paths there;
   the other fields are immutable plain data and cross as-is. *)
let import_packet pkt =
  match pkt with
  | Packet.Interest i -> Packet.Interest (Interest.import i)
  | Packet.Data d -> Packet.Data (Data.import d)
  | Packet.Nack n -> Packet.Nack (Nack.import n)

let pkt_name pkt =
  match pkt with
  | Packet.Interest i -> ("interest", i.Interest.name)
  | Packet.Data data -> ("data", data.Data.name)
  | Packet.Nack n -> ("nack", n.Nack.name)

(* Put one packet on a link direction: sample loss, then latency, in a
   fixed order for determinism, and schedule the delivery, keyed by
   [src] on [src]'s shard; a delivery to another shard goes through
   [Sim.Shard]'s cross-shard queue.  Both draws happen whether or not
   tracing is on, so enabling a tracer never perturbs the RNG stream.
   This is a top-level function rather than a closure inside
   [connect]'s [deliver], so an unqueued packet allocates only its
   delivery event. *)
let transmit sh ~dir ~lat src dst face_ref pkt =
  let eng = Node.engine src in
  let tr = Node.tracer src in
  let lost = dir.loss > 0. && Sim.Rng.bernoulli dir.rng dir.loss in
  let d = Sim.Latency.sample lat dir.rng *. dir.latency_factor in
  if Sim.Trace.enabled tr then begin
    let pkt_type, name = pkt_name pkt in
    Sim.Trace.emit tr
      {
        Sim.Trace.time = Sim.Engine.now eng;
        node = Node.label src;
        kind = (if lost then Sim.Trace.Link_drop else Sim.Trace.Link_transmit);
        name = Name.to_string name;
        attrs =
          [
            ("dst", Node.label dst);
            ("pkt", pkt_type);
            ("delay_ms", Printf.sprintf "%.6f" d);
          ];
      }
  end;
  if not lost then begin
    let key = Node.fresh_event_key src in
    if Node.shard src = Node.shard dst then
      ignore
        (Sim.Engine.schedule_key eng ~delay:d ~key (fun () ->
             Node.receive dst ~face:!face_ref pkt))
    else
      Sim.Shard.send sh ~src:(Node.shard src) ~dst:(Node.shard dst)
        ~time:(Sim.Engine.now eng +. d)
        ~key
        (fun () -> Node.receive dst ~face:!face_ref (import_packet pkt))
  end

(* Offer one packet to a link direction.  Runs on [src]'s shard and
   reads or draws only src-shard state; the trace goes to src's shard
   buffer.  Queue state, too, lives entirely on the sending side:
   serialization only ever {e delays} the start of a delivery, so the
   cross-shard lookahead bound (the latency lower bound) stays
   sound. *)
let deliver sh ~src ~dir ~lat dst face_ref back_ref pkt =
  let eng = Node.engine src in
  let tr = Node.tracer src in
  if not dir.up then begin
    (* A downed direction consumes no randomness: when the link comes
       back the RNG stream continues exactly where it left off. *)
    if Sim.Trace.enabled tr then begin
      let pkt_type, name = pkt_name pkt in
      Sim.Trace.emit tr
        {
          Sim.Trace.time = Sim.Engine.now eng;
          node = Node.label src;
          kind = Sim.Trace.Link_drop;
          name = Name.to_string name;
          attrs =
            [ ("dst", Node.label dst); ("pkt", pkt_type); ("reason", "down") ];
        }
    end
  end
  else if dir.q_rate <= 0. then transmit sh ~dir ~lat src dst face_ref pkt
  else begin
    (* Bounded transmission queue: the packet serializes at [q_rate]
       bytes/ms behind the current backlog; a full queue drops it at
       the tail.  The drop of an Interest is answered with a Congested
       NACK handed back to the sending forwarder, which relays it
       downstream along its PIT entry — if its NACK plane is enabled. *)
    let now_t = Sim.Engine.now eng in
    if dir.qlen >= dir.q_depth then begin
      if Sim.Trace.enabled tr then begin
        let pkt_type, name = pkt_name pkt in
        Sim.Trace.emit tr
          {
            Sim.Trace.time = now_t;
            node = Node.label src;
            kind = Sim.Trace.Queue_drop;
            name = Name.to_string name;
            attrs =
              [
                ("dst", Node.label dst);
                ("pkt", pkt_type);
                ("policy", "drop-tail");
                ("depth", string_of_int dir.qlen);
              ];
          }
      end;
      match pkt with
      | Packet.Interest i when Node.nacks_enabled src ->
        let nack =
          Nack.create ~nonce:i.Interest.nonce ~reason:Nack.Congested
            i.Interest.name
        in
        Node.schedule_app src ~delay:0. (fun () ->
            Node.receive src ~face:!back_ref (Packet.Nack nack))
      | _ -> ()
    end
    else begin
      dir.qlen <- dir.qlen + 1;
      let start = Float.max now_t dir.busy_until in
      let depart =
        start +. (float_of_int (Wire.encoded_size pkt) /. dir.q_rate)
      in
      dir.busy_until <- depart;
      Node.schedule_app src ~delay:(depart -. now_t) (fun () ->
          dir.qlen <- dir.qlen - 1;
          transmit sh ~dir ~lat src dst face_ref pkt)
    end
  end

let connect t ?(loss = 0.) ?latency_ba ~latency a b =
  let lat_ab = latency in
  let lat_ba = Option.value latency_ba ~default:latency in
  (* Split order = connect order, ab before ba, so builds are
     reproducible. *)
  let fresh_dir () =
    {
      rng = Sim.Rng.split t.rng;
      base_loss = loss;
      up = true;
      loss;
      latency_factor = 1.;
      q_rate = 0.;
      q_depth = 0;
      busy_until = 0.;
      qlen = 0;
    }
  in
  let ab = fresh_dir () in
  let link = { l_a = Node.label a; l_b = Node.label b; ab; ba = fresh_dir () } in
  if
    (not (Hashtbl.mem t.link_tbl (link.l_a, link.l_b)))
    && not (Hashtbl.mem t.link_tbl (link.l_b, link.l_a))
  then Hashtbl.add t.link_tbl (link.l_a, link.l_b) link;
  if Node.shard a <> Node.shard b then begin
    Sim.Shard.note_min_link_delay t.sh (Sim.Latency.lower_bound lat_ab);
    Sim.Shard.note_min_link_delay t.sh (Sim.Latency.lower_bound lat_ba)
  end;
  let face_b = ref (-1) in
  let face_a_ref = ref (-1) in
  let face_a =
    Node.add_wire_face a (fun pkt ->
        deliver t.sh ~src:a ~dir:link.ab ~lat:lat_ab b face_b face_a_ref pkt)
  in
  face_a_ref := face_a;
  let fb =
    Node.add_wire_face b (fun pkt ->
        deliver t.sh ~src:b ~dir:link.ba ~lat:lat_ba a face_a_ref face_b pkt)
  in
  face_b := fb;
  (face_a, fb)

(* --- fault injection --- *)

(* Find the link joining [a] and [b] in either orientation; the bool is
   [true] when it is stored as (b, a), in which case the caller's "ab"
   direction is the stored [ba] one. *)
let find_link t a b =
  match Hashtbl.find_opt t.link_tbl (a, b) with
  | Some l -> Ok (l, false)
  | None -> (
    match Hashtbl.find_opt t.link_tbl (b, a) with
    | Some l -> Ok (l, true)
    | None -> Error (Printf.sprintf "no link between %s and %s" a b))

let dirs_of link ~flipped (dir : Sim.Fault.direction) =
  match (dir, flipped) with
  | Sim.Fault.Both, _ -> [ link.ab; link.ba ]
  | Ab, false | Ba, true -> [ link.ab ]
  | Ba, false | Ab, true -> [ link.ba ]

(* A direction's state is read from the sending node's domain, so fault
   application must happen there too: pair each affected
   direction with the node whose sends read it (the stored [ab]
   direction is read by [l_a]'s deliveries, [ba] by [l_b]'s). *)
let dirs_with_owners t link ~flipped (dir : Sim.Fault.direction) =
  let owner_a = Hashtbl.find t.node_tbl link.l_a in
  let owner_b = Hashtbl.find t.node_tbl link.l_b in
  match (dir, flipped) with
  | Sim.Fault.Both, _ -> [ (owner_a, link.ab); (owner_b, link.ba) ]
  | Ab, false | Ba, true -> [ (owner_a, link.ab) ]
  | Ba, false | Ab, true -> [ (owner_b, link.ba) ]

let direction_label = function
  | Sim.Fault.Ab -> "ab"
  | Sim.Fault.Ba -> "ba"
  | Sim.Fault.Both -> "both"

let set_link_state t ~a ~b ~up () =
  Result.map
    (fun (link, flipped) ->
      List.iter (fun d -> d.up <- up) (dirs_of link ~flipped Sim.Fault.Both))
    (find_link t a b)

let set_link_queue t ~a ~b ~rate_mbps ~depth () =
  if not (rate_mbps > 0. && Float.is_finite rate_mbps) then
    Error "link queue: rate_mbps must be positive and finite"
  else if depth <= 0 then Error "link queue: depth must be positive"
  else
    Result.map
      (fun (link, flipped) ->
        List.iter
          (fun d ->
            (* Mbit/s -> bytes/ms. *)
            d.q_rate <- rate_mbps *. 125.;
            d.q_depth <- depth)
          (dirs_of link ~flipped Sim.Fault.Both))
      (find_link t a b)

let f6 = Printf.sprintf "%.6f"

(* Fault application.  Every piece of a fault event is scheduled as a
   node-keyed event on the domain that owns the state it mutates:
   link-direction pieces on the sending endpoint, node pieces on the
   node itself.  Splitting a Both-direction link fault into two pieces
   is partition-invariant (the split depends on the endpoints, never on
   the shard count); the trace record is emitted once, from the first
   piece. *)
let trace_fault owner ~node kind attrs =
  let tr = Node.tracer owner in
  if Sim.Trace.enabled tr then
    Sim.Trace.emit tr
      {
        Sim.Trace.time = Sim.Engine.now (Node.engine owner);
        node;
        kind;
        name = "";
        attrs;
      }

let schedule_fault t (e : Sim.Fault.event) =
  let at = e.Sim.Fault.at in
  let link_pieces a b dir f =
    match find_link t a b with
    | Error _ -> () (* validated by install_faults; unreachable *)
    | Ok (link, flipped) ->
      List.iteri
        (fun i (owner, d) ->
          Node.schedule_app_at owner ~time:at (fun () -> f ~first:(i = 0) owner d))
        (dirs_with_owners t link ~flipped dir)
  in
  match e.Sim.Fault.kind with
  | Sim.Fault.Link_down { a; b; dir } ->
    link_pieces a b dir (fun ~first owner d ->
        if first then
          trace_fault owner ~node:a Sim.Trace.Fault_link
            [ ("peer", b); ("dir", direction_label dir); ("state", "down") ];
        d.up <- false)
  | Link_up { a; b; dir } ->
    link_pieces a b dir (fun ~first owner d ->
        if first then
          trace_fault owner ~node:a Sim.Trace.Fault_link
            [ ("peer", b); ("dir", direction_label dir); ("state", "up") ];
        d.up <- true)
  | Link_degrade { a; b; dir; loss; latency_factor; until } ->
    link_pieces a b dir (fun ~first owner d ->
        if first then
          trace_fault owner ~node:a Sim.Trace.Fault_link
            [
              ("peer", b);
              ("dir", direction_label dir);
              ("state", "degraded");
              ("loss", f6 loss);
              ("latency_factor", f6 latency_factor);
              ("until", f6 until);
            ];
        d.loss <- loss;
        d.latency_factor <- latency_factor;
        (* Each piece restores its own direction on its own shard. *)
        Node.schedule_app_at owner ~time:until (fun () ->
            if first then
              trace_fault owner ~node:a Sim.Trace.Fault_link
                [ ("peer", b); ("dir", direction_label dir); ("state", "restored") ];
            d.loss <- d.base_loss;
            d.latency_factor <- 1.))
  | Node_crash { node = label; preserve_cs } ->
    Option.iter
      (fun n ->
        Node.schedule_app_at n ~time:at (fun () ->
            trace_fault n ~node:label Sim.Trace.Fault_crash
              [ ("preserve_cs", string_of_bool preserve_cs) ];
            Node.crash ~preserve_cs n))
      (node t label)
  | Node_restart { node = label } ->
    Option.iter
      (fun n ->
        Node.schedule_app_at n ~time:at (fun () ->
            trace_fault n ~node:label Sim.Trace.Fault_restart [];
            Node.restart n))
      (node t label)
  | Producer_outage { node = label; until } ->
    Option.iter
      (fun n ->
        Node.schedule_app_at n ~time:at (fun () ->
            trace_fault n ~node:label Sim.Trace.Fault_producer
              [ ("state", "down"); ("until", f6 until) ];
            Node.set_producers_enabled n false;
            Node.schedule_app_at n ~time:until (fun () ->
                trace_fault n ~node:label Sim.Trace.Fault_producer
                  [ ("state", "restored") ];
                Node.set_producers_enabled n true)))
      (node t label)
  | Producer_slowdown { node = label; factor; until } ->
    Option.iter
      (fun n ->
        Node.schedule_app_at n ~time:at (fun () ->
            trace_fault n ~node:label Sim.Trace.Fault_producer
              [ ("state", "slow"); ("factor", f6 factor); ("until", f6 until) ];
            Node.set_production_factor n factor;
            Node.schedule_app_at n ~time:until (fun () ->
                trace_fault n ~node:label Sim.Trace.Fault_producer
                  [ ("state", "restored") ];
                Node.set_production_factor n 1.)))
      (node t label)

(* Check that every event's targets exist before anything is scheduled,
   so a typo in a schedule fails loudly instead of silently no-opping
   halfway through a run. *)
let check_targets t (e : Sim.Fault.event) =
  let need_node label =
    match node t label with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "unknown node %S" label)
  in
  let need_link a b = Result.map (fun _ -> ()) (find_link t a b) in
  let r =
    match e.Sim.Fault.kind with
    | Sim.Fault.Link_down { a; b; _ }
    | Link_up { a; b; _ }
    | Link_degrade { a; b; _ } -> need_link a b
    | Node_crash { node; _ } | Node_restart { node } -> need_node node
    | Producer_outage { node; _ } | Producer_slowdown { node; _ } ->
      need_node node
  in
  Result.map_error
    (fun msg -> Printf.sprintf "fault at t=%g: %s" e.Sim.Fault.at msg)
    r

let install_faults t schedule =
  let rec check = function
    | [] -> Ok ()
    | e :: rest -> (
      match Sim.Fault.validate e with
      | Error _ as err -> err
      | Ok () -> (
        match check_targets t e with
        | Ok () -> check rest
        | Error _ as err -> err))
  in
  Result.map
    (fun () ->
      (* A degrade that speeds a link up undercuts the lookahead bound;
         registering the factor before anything runs keeps every window
         of the whole run sound. *)
      List.iter
        (fun (e : Sim.Fault.event) ->
          match e.Sim.Fault.kind with
          | Sim.Fault.Link_degrade { latency_factor; _ }
            when latency_factor < 1. ->
            Sim.Shard.note_latency_factor t.sh latency_factor
          | _ -> ())
        schedule;
      List.iter (schedule_fault t) schedule)
    (check schedule)

let route _t node ~prefix ~via = Fib.add_route (Node.fib node) ~prefix ~face:via

let run ?until t = Sim.Shard.run ?until t.sh

let events_processed t = Sim.Shard.events_processed t.sh

let windows t = Sim.Shard.windows t.sh

let fetch_rtt t ~from ?scope ?timeout_ms name =
  let result = ref None in
  Node.express_interest from ?scope ?timeout_ms
    ~on_data:(fun ~rtt_ms _data -> result := Some rtt_ms)
    ~on_timeout:(fun () -> ())
    name;
  (* Run until the exchange (or its timeout) has fully played out. *)
  run t;
  !result

(* --- Figure 3 topologies --- *)

type probe_setup = {
  net : t;
  user : Node.t;
  adversary : Node.t;
  router : Node.t;
  producer_host : Node.t;
  prefix : Name.t;
  producer_key : string;
}

type producer_config = {
  producer_private : bool;
  strict_match : bool;
  payload_size : int;
  production_delay_ms : float;
}

let default_producer_config =
  {
    producer_private = false;
    strict_match = false;
    payload_size = 1024;
    production_delay_ms = 0.4;
  }

let install_producer ~config ~prefix ~key node =
  let payload_of name =
    (* Deterministic pseudo-payload so repeated runs are identical. *)
    let h = Ndn_crypto.Sha256.hex_digest (Name.to_string name) in
    let buf = Buffer.create config.payload_size in
    while Buffer.length buf < config.payload_size do
      Buffer.add_string buf h
    done;
    Buffer.sub buf 0 config.payload_size
  in
  Node.add_producer node ~prefix ~production_delay_ms:config.production_delay_ms
    (fun interest ->
      let name = interest.Interest.name in
      if Name.is_prefix ~prefix name then
        Some
          (Data.create ~producer_private:config.producer_private
             ~strict_match:config.strict_match ~producer:(Node.label node) ~key
             ~payload:(payload_of name) name)
      else None)

(* Per-node packet-processing cost: dominated by the NDN daemon's
   name lookup and signing checks; roughly half a millisecond in the
   2013 CCNx codebase.  The LAN testbed machines in the paper show a
   somewhat higher per-packet cost, hence the separate constant. *)
let ccnd_processing = Sim.Latency.Normal { mean = 0.55; stddev = 0.12; min = 0.15 }
let lan_ccnd_processing = Sim.Latency.Normal { mean = 0.9; stddev = 0.18; min = 0.3 }

let lan ?(seed = 42) ?tracer ?shards ?(producer = default_producer_config) () =
  let net = create ~seed ?tracer ?shards () in
  let user = add_node net ~forwarding_delay:lan_ccnd_processing ~caching:false "U" in
  let adversary =
    add_node net ~forwarding_delay:lan_ccnd_processing ~caching:false "Adv"
  in
  let router = add_node net ~forwarding_delay:lan_ccnd_processing "R" in
  let producer_host = add_node net ~forwarding_delay:lan_ccnd_processing "P" in
  let fe = Sim.Latency.fast_ethernet in
  let u_r, _ = connect net ~latency:fe user router in
  let a_r, _ = connect net ~latency:fe adversary router in
  let r_p, _ =
    connect net ~latency:(Sim.Latency.Normal { mean = 1.8; stddev = 0.35; min = 0.5 })
      router producer_host
  in
  let prefix = Name.of_string "/prod" in
  let producer_key = "lan-producer-key" in
  install_producer ~config:producer ~prefix ~key:producer_key producer_host;
  route net user ~prefix ~via:u_r;
  route net adversary ~prefix ~via:a_r;
  route net router ~prefix ~via:r_p;
  { net; user; adversary; router; producer_host; prefix; producer_key }

(* Builds consumer --[hop]*n-- router chains where every intermediate
   hop is itself a caching NDN router, and returns the consumer's
   egress face. *)
let attach_via_hops net ~hop_latency ~hops ~prefix consumer router =
  let rec build upstream_of i =
    (* [upstream_of] is the node closer to the consumer. *)
    if i = 0 then begin
      let f, _ = connect net ~latency:hop_latency upstream_of router in
      route net upstream_of ~prefix ~via:f
    end
    else begin
      let mid = add_node net ~forwarding_delay:ccnd_processing
          (Printf.sprintf "%s-hop%d" (Node.label consumer) i)
      in
      let f, _ = connect net ~latency:hop_latency upstream_of mid in
      route net upstream_of ~prefix ~via:f;
      build mid (i - 1)
    end
  in
  build consumer (hops - 1)

let wan ?(seed = 42) ?tracer ?shards ?(producer = default_producer_config) () =
  let net = create ~seed ?tracer ?shards () in
  let user = add_node net ~forwarding_delay:ccnd_processing ~caching:false "U" in
  let adversary =
    add_node net ~forwarding_delay:ccnd_processing ~caching:false "Adv"
  in
  let router = add_node net ~forwarding_delay:ccnd_processing "R" in
  let producer_host = add_node net ~forwarding_delay:ccnd_processing "P" in
  let prefix = Name.of_string "/prod" in
  let producer_key = "wan-producer-key" in
  install_producer ~config:producer ~prefix ~key:producer_key producer_host;
  let hop = Sim.Latency.Shifted_exponential { shift = 0.35; rate = 3.0 } in
  (* "U and Adv are connected to the same first-hop NDN router R, which
     is several hops away from both, while P is 3 hops away from R." *)
  attach_via_hops net ~hop_latency:hop ~hops:2 ~prefix user router;
  attach_via_hops net ~hop_latency:hop ~hops:2 ~prefix adversary router;
  attach_via_hops net ~hop_latency:hop ~hops:3 ~prefix router producer_host;
  { net; user; adversary; router; producer_host; prefix; producer_key }

let wan_producer ?(seed = 42) ?tracer ?shards ?(producer = default_producer_config)
    () =
  let net = create ~seed ?tracer ?shards () in
  let user = add_node net ~forwarding_delay:ccnd_processing ~caching:false "U" in
  let adversary =
    add_node net ~forwarding_delay:ccnd_processing ~caching:false "Adv"
  in
  let router = add_node net ~forwarding_delay:ccnd_processing "R" in
  let producer_host = add_node net ~forwarding_delay:ccnd_processing "P" in
  let prefix = Name.of_string "/prod" in
  let producer_key = "wanp-producer-key" in
  install_producer ~config:producer ~prefix ~key:producer_key producer_host;
  (* Long-haul hops with moderate jitter: the total consumer-to-R RTT
     is ~190 ms, so the extra R-to-P round trip on a miss is only a few
     ms — which is why a single probe distinguishes with probability
     barely above 1/2 (paper: 59%). *)
  let long_haul = Sim.Latency.Normal { mean = 31.0; stddev = 2.55; min = 20. } in
  attach_via_hops net ~hop_latency:long_haul ~hops:3 ~prefix user router;
  attach_via_hops net ~hop_latency:long_haul ~hops:3 ~prefix adversary router;
  let r_p, _ =
    connect net ~latency:(Sim.Latency.Normal { mean = 0.8; stddev = 0.15; min = 0.3 })
      router producer_host
  in
  route net router ~prefix ~via:r_p;
  { net; user; adversary; router; producer_host; prefix; producer_key }

let local_host ?(seed = 42) ?tracer ?shards ?(producer = default_producer_config)
    () =
  let net = create ~seed ?tracer ?shards () in
  (* One host runs both honest and malicious applications; its own
     forwarder's Content Store is the probed cache. *)
  let host =
    add_node net
      ~forwarding_delay:(Sim.Latency.Normal { mean = 0.6; stddev = 0.12; min = 0.3 })
      "host"
  in
  let router = add_node net ~forwarding_delay:ccnd_processing "R" in
  let producer_host = add_node net ~forwarding_delay:ccnd_processing "P" in
  let prefix = Name.of_string "/prod" in
  let producer_key = "local-producer-key" in
  install_producer ~config:producer ~prefix ~key:producer_key producer_host;
  let h_r, _ = connect net ~latency:Sim.Latency.fast_ethernet host router in
  let r_p, _ =
    connect net ~latency:(Sim.Latency.Normal { mean = 0.9; stddev = 0.5; min = 0.2 })
      router producer_host
  in
  route net host ~prefix ~via:h_r;
  route net router ~prefix ~via:r_p;
  { net; user = host; adversary = host; router = host; producer_host; prefix; producer_key }

(* --- two-party interactive topology --- *)

type conversation_setup = {
  cnet : t;
  alice : Node.t;
  bob : Node.t;
  eavesdropper : Node.t;
  shared_router : Node.t;
  alice_prefix : Name.t;
  bob_prefix : Name.t;
  alice_key : string;
  bob_key : string;
}

let conversation ?(seed = 42) ?shards () =
  let net = create ~seed ?shards () in
  let alice = add_node net ~forwarding_delay:lan_ccnd_processing ~caching:false "alice" in
  let bob = add_node net ~forwarding_delay:lan_ccnd_processing ~caching:false "bob" in
  let eavesdropper =
    add_node net ~forwarding_delay:lan_ccnd_processing ~caching:false "eve"
  in
  let shared_router = add_node net ~forwarding_delay:lan_ccnd_processing "R" in
  let fe = Sim.Latency.fast_ethernet in
  let a_r, r_a = connect net ~latency:fe alice shared_router in
  let b_r, r_b = connect net ~latency:fe bob shared_router in
  let e_r, _ = connect net ~latency:fe eavesdropper shared_router in
  let alice_prefix = Name.of_string "/alice/call" in
  let bob_prefix = Name.of_string "/bob/call" in
  (* Interests for a party's namespace route toward that party. *)
  route net shared_router ~prefix:alice_prefix ~via:r_a;
  route net shared_router ~prefix:bob_prefix ~via:r_b;
  route net alice ~prefix:bob_prefix ~via:a_r;
  route net bob ~prefix:alice_prefix ~via:b_r;
  route net eavesdropper ~prefix:alice_prefix ~via:e_r;
  route net eavesdropper ~prefix:bob_prefix ~via:e_r;
  {
    cnet = net;
    alice;
    bob;
    eavesdropper;
    shared_router;
    alice_prefix;
    bob_prefix;
    alice_key = "alice-signing-key";
    bob_key = "bob-signing-key";
  }

(* --- edge/core deployment topology --- *)

type edge_core_setup = {
  ecnet : t;
  victim : Node.t;
  local_adversary : Node.t;
  remote_consumer : Node.t;
  edge1 : Node.t;
  edge2 : Node.t;
  core : Node.t;
}

let edge_core ?(seed = 42) ?(producer = default_producer_config) () =
  let net = create ~seed () in
  let victim = add_node net ~forwarding_delay:ccnd_processing ~caching:false "victim" in
  let local_adversary =
    add_node net ~forwarding_delay:ccnd_processing ~caching:false "adv"
  in
  let remote_consumer =
    add_node net ~forwarding_delay:ccnd_processing ~caching:false "remote"
  in
  let edge1 = add_node net ~forwarding_delay:ccnd_processing "edge1" in
  let edge2 = add_node net ~forwarding_delay:ccnd_processing "edge2" in
  let core = add_node net ~forwarding_delay:ccnd_processing "core" in
  let producer_host = add_node net ~forwarding_delay:ccnd_processing "P" in
  let fe = Sim.Latency.fast_ethernet in
  let metro = Sim.Latency.Normal { mean = 5.0; stddev = 0.6; min = 2. } in
  let long_haul = Sim.Latency.Normal { mean = 40.0; stddev = 3.0; min = 25. } in
  let v_e1, _ = connect net ~latency:fe victim edge1 in
  let a_e1, _ = connect net ~latency:fe local_adversary edge1 in
  let r_e2, _ = connect net ~latency:fe remote_consumer edge2 in
  let e1_c, _ = connect net ~latency:metro edge1 core in
  let e2_c, _ = connect net ~latency:metro edge2 core in
  let c_p, _ = connect net ~latency:long_haul core producer_host in
  let prefix = Name.of_string "/prod" in
  install_producer ~config:producer ~prefix ~key:"edge-core-producer-key"
    producer_host;
  route net victim ~prefix ~via:v_e1;
  route net local_adversary ~prefix ~via:a_e1;
  route net remote_consumer ~prefix ~via:r_e2;
  route net edge1 ~prefix ~via:e1_c;
  route net edge2 ~prefix ~via:e2_c;
  route net core ~prefix ~via:c_p;
  {
    ecnet = net;
    victim;
    local_adversary;
    remote_consumer;
    edge1;
    edge2;
    core;
  }
