type response_action = Respond | Respond_after of float | Treat_as_miss

type strategy = {
  on_cache_hit : now:float -> Interest.t -> Data.t -> response_action;
  should_cache : now:float -> Data.t -> fetch_delay:float -> bool;
  note_miss : now:float -> Interest.t -> unit;
  forward_delay : now:float -> Data.t -> fetch_delay:float -> float;
}

let default_strategy =
  {
    on_cache_hit = (fun ~now:_ _ _ -> Respond);
    should_cache = (fun ~now:_ _ ~fetch_delay:_ -> true);
    note_miss = (fun ~now:_ _ -> ());
    forward_delay = (fun ~now:_ _ ~fetch_delay:_ -> 0.);
  }

type face_kind =
  | Local_app
  | Wire of (Packet.t -> unit)
  | Producer_app of { handler : Interest.t -> Data.t option; delay : float }

(* One record per expression.  [key] is the event key the expression
   claimed when it was issued, unique on its node: its timeout finds
   the record by it, so the timeout closure needs no reference to the
   record it is stored in. *)
type pending_expression = {
  issued : float;
  key : int;
  on_data : rtt_ms:float -> Data.t -> unit;
  on_timeout : unit -> unit;
  on_nack : (Nack.reason -> unit) option;
  timeout_handle : Sim.Engine.handle;
}

type mutable_counters = {
  mutable interests_received : int;
  mutable interests_forwarded : int;
  mutable interests_collapsed : int;
  mutable data_received : int;
  mutable data_sent : int;
  mutable cache_responses : int;
  mutable delayed_responses : int;
  mutable scope_drops : int;
  mutable no_route_drops : int;
  mutable unsolicited_data : int;
  mutable dropped_down : int;
  mutable nacks_sent : int;
  mutable nacks_received : int;
}

type counters = {
  interests_received : int;
  interests_forwarded : int;
  interests_collapsed : int;
  data_received : int;
  data_sent : int;
  cache_responses : int;
  delayed_responses : int;
  scope_drops : int;
  no_route_drops : int;
  unsolicited_data : int;
  dropped_down : int;
  nacks_sent : int;
  nacks_received : int;
}

type t = {
  label : string;
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  tracer : Sim.Trace.t;
  (* [sid] is the node's creation-order index and [shard] the engine
     it was assigned to.  Every event this node schedules is keyed with
     [(sid, kseq++)] packed into one int — a globally unique key whose
     order depends only on node creation order and per-node history,
     never on the partition — which is what makes the heap pop order
     (and thus the whole simulation) shard-count-invariant. *)
  sid : int;
  shard : int;
  mutable kseq : int;
  cs : unit Content_store.t;
  mutable pit : Pit.t;
  fib : Fib.t;
  pit_lifetime_ms : float;
  forwarding_delay : Sim.Latency.t;
  honor_scope : bool;
  mutable nacks : bool;
  caching : bool;
  mutable alive : bool;
  mutable producers_enabled : bool;
  mutable production_factor : float;
  mutable faces : face_kind array;
  mutable n_faces : int;
  pending_local : pending_expression list ref Name_trie.t;
  mutable strat : strategy;
  c : mutable_counters;
  (* PIT sweep arm times and the event keys they reserved, a FIFO in
     two parallel rings (a push or a pop allocates nothing once they
     have grown).  Only the front one is scheduled, with [sweep], the
     node's one sweep closure, built at creation. *)
  mutable arm_at : float array;
  mutable arm_key : int array;
  mutable arm_head : int;
  mutable arm_len : int;
  mutable sweep : unit -> unit;
}

let trace t kind name attrs =
  if Sim.Trace.enabled t.tracer then
    Sim.Trace.emit t.tracer
      {
        Sim.Trace.time = Sim.Engine.now t.engine;
        node = t.label;
        kind;
        name = Name.to_string name;
        attrs;
      }

(* Event-key packing: 41 bits of per-node counter under 21+ bits of
   node id keeps keys positive, unique and ordered by (sid, kseq) in a
   63-bit int — ~2M nodes and ~2.2e12 events per node before
   overflow. *)
let key_bits = 41

let fresh_event_key t =
  let k = (t.sid lsl key_bits) lor t.kseq in
  t.kseq <- t.kseq + 1;
  k

(* All of this node's event scheduling funnels through these two. *)
let sched t ~delay f =
  Sim.Engine.schedule_key t.engine ~delay ~key:(fresh_event_key t) f

let sched_at t ~time f =
  Sim.Engine.schedule_key_at t.engine ~time ~key:(fresh_event_key t) f

(* --- PIT sweeps ---

   Every forwarded interest asks for a PIT sweep at [now + lifetime + 1]
   ms, but only the front of the node's arm-time FIFO is scheduled.
   Each arm time reserves its event key when it is asked for, exactly
   as scheduling it would, so a sweep that does run keeps its place
   among same-instant events.  When the sweep fires it expires the PIT,
   then drops the queued arm times at which no entry, live or yet to
   come, can be old enough ([Pit.sweep_useful]), and schedules the
   first one left.  If none is left, the engine is held at the last
   dropped time ([Sim.Engine.hold_until]): it may have been the run's
   final event, and a drained run must end at the same instant. *)

let arms_push t at key =
  let cap = Array.length t.arm_at in
  if t.arm_len = cap then begin
    let ncap = Int.max 8 (2 * cap) in
    let nat = Array.make ncap 0. and nkey = Array.make ncap 0 in
    for i = 0 to t.arm_len - 1 do
      let j = (t.arm_head + i) mod cap in
      nat.(i) <- t.arm_at.(j);
      nkey.(i) <- t.arm_key.(j)
    done;
    t.arm_at <- nat;
    t.arm_key <- nkey;
    t.arm_head <- 0
  end;
  let i = (t.arm_head + t.arm_len) mod Array.length t.arm_at in
  t.arm_at.(i) <- at;
  t.arm_key.(i) <- key;
  t.arm_len <- t.arm_len + 1

let arms_drop t =
  t.arm_head <- (t.arm_head + 1) mod Array.length t.arm_at;
  t.arm_len <- t.arm_len - 1

let rec trace_timeouts t = function
  | [] -> ()
  | n :: rest ->
    trace t Sim.Trace.Pit_timeout n [];
    trace_timeouts t rest

let schedule_front t =
  ignore
    (Sim.Engine.schedule_key_at t.engine ~time:t.arm_at.(t.arm_head)
       ~key:t.arm_key.(t.arm_head) t.sweep)

(* ndnlint: hot *)
let sweep_pit t =
  arms_drop t;
  let now = Sim.Engine.now t.engine in
  trace_timeouts t (Pit.expire t.pit ~now);
  while t.arm_len > 0 && not (Pit.sweep_useful t.pit ~now ~at:t.arm_at.(t.arm_head)) do
    if t.arm_len = 1 then Sim.Engine.hold_until t.engine t.arm_at.(t.arm_head);
    arms_drop t
  done;
  if t.arm_len > 0 then schedule_front t

let request_sweep t ~now =
  let at = now +. (t.pit_lifetime_ms +. 1.) in
  arms_push t at (fresh_event_key t);
  if t.arm_len = 1 then schedule_front t

(* Replace the PIT with a fresh (empty) finite table.  Pending entries
   are discarded, so callers configure overload limits right after
   construction, before any traffic runs. *)
let set_pit_limits t ?capacity ?admission () =
  let admission = Option.value admission ~default:Pit.Drop_new in
  t.pit <-
    Pit.create ~lifetime_ms:t.pit_lifetime_ms ?capacity ~admission
      ~on_evict:(fun name ->
        trace t Sim.Trace.Pit_drop name
          [ ("policy", Pit.admission_to_string admission); ("reason", "evict") ])
      ()

let create engine ~rng ~label ?(tracer = Sim.Trace.disabled)
    ?(cs_capacity = 0) ?(cs_policy = Eviction.Lru) ?(pit_lifetime_ms = 4000.)
    ?(forwarding_delay = Sim.Latency.Constant 0.02) ?(honor_scope = true)
    ?(caching = true) ?(sid = 0) ?(shard = 0) () =
  let cs_rng =
    match cs_policy with Eviction.Random_replacement -> Some (Sim.Rng.split rng) | _ -> None
  in
  let t =
  {
    label;
    engine;
    (* ndnlint: allow G1 -- cs_rng is split off first, unconditionally ordered before any draw from the node's own handle, so keeping the parent here cannot perturb its stream; reordering would change every seeded trace *)
    rng;
    tracer;
    sid;
    shard;
    kseq = 0;
    cs =
      Content_store.create ~policy:cs_policy ?rng:cs_rng ~tracer ~owner:label
        ~capacity:cs_capacity ();
    pit = Pit.create ~lifetime_ms:pit_lifetime_ms ();
    fib = Fib.create ();
    pit_lifetime_ms;
    forwarding_delay;
    honor_scope;
    nacks = false;
    caching;
    alive = true;
    producers_enabled = true;
    production_factor = 1.;
    faces = [| Local_app |];
    n_faces = 1;
    pending_local = Name_trie.create ();
    strat = default_strategy;
    c =
      {
        interests_received = 0;
        interests_forwarded = 0;
        interests_collapsed = 0;
        data_received = 0;
        data_sent = 0;
        cache_responses = 0;
        delayed_responses = 0;
        scope_drops = 0;
        no_route_drops = 0;
        unsolicited_data = 0;
        dropped_down = 0;
        nacks_sent = 0;
        nacks_received = 0;
      };
    arm_at = [||];
    arm_key = [||];
    arm_head = 0;
    arm_len = 0;
    sweep = ignore;
  }
  in
  t.sweep <- (fun () -> sweep_pit t);
  t

let label t = t.label
let engine t = t.engine
let tracer t = t.tracer
let shard t = t.shard

let schedule_app t ~delay f = ignore (sched t ~delay f)

let schedule_app_at t ~time f = ignore (sched_at t ~time f)
let content_store t = t.cs
let pit t = t.pit
let fib t = t.fib
let set_strategy t s = t.strat <- s
let set_nacks_enabled t b = t.nacks <- b
let nacks_enabled t = t.nacks

let add_face t kind =
  if t.n_faces = Array.length t.faces then begin
    let nf = Array.make (max 4 (2 * t.n_faces)) Local_app in
    Array.blit t.faces 0 nf 0 t.n_faces;
    t.faces <- nf
  end;
  t.faces.(t.n_faces) <- kind;
  t.n_faces <- t.n_faces + 1;
  t.n_faces - 1

let add_wire_face t send = add_face t (Wire send)

(* --- local application dispatch --- *)

let dispatch_local t data =
  let now = Sim.Engine.now t.engine in
  let matched =
    Name_trie.fold_prefixes t.pending_local data.Data.name ~init:[]
      ~f:(fun acc name cell -> (name, cell) :: acc)
  in
  List.iter (fun (name, _) -> Name_trie.remove t.pending_local name) matched;
  List.iter
    (fun (_, cell) ->
      List.iter
        (fun p ->
          Sim.Engine.cancel p.timeout_handle;
          p.on_data ~rtt_ms:(now -. p.issued) data)
        (List.rev !cell))
    (List.rev matched)

(* A NACK reaching the application face fails exactly the expressions
   that asked to hear about it ([on_nack]); the rest keep their armed
   timeout, so legacy consumers observe nothing new. *)
let dispatch_local_nack t nack =
  let name = nack.Nack.name in
  match Name_trie.find t.pending_local name with
  | None -> ()
  | Some cell ->
    let notify, keep =
      List.partition (fun p -> Option.is_some p.on_nack) !cell
    in
    cell := keep;
    if keep = [] then Name_trie.remove t.pending_local name;
    List.iter
      (fun p ->
        Sim.Engine.cancel p.timeout_handle;
        match p.on_nack with
        | Some f -> f nack.Nack.reason
        | None -> ())
      (List.rev notify)

(* --- sending --- *)

let proc_delay t = Sim.Latency.sample t.forwarding_delay t.rng

let send_data t ~face data =
  if face >= 0 && face < t.n_faces then
    match t.faces.(face) with
    | Wire send ->
      t.c.data_sent <- t.c.data_sent + 1;
      if Sim.Trace.enabled t.tracer then
        trace t Sim.Trace.Data_sent data.Data.name
          [ ("face", string_of_int face) ];
      ignore
        (sched t ~delay:(proc_delay t) (fun () ->
             send (Packet.Data data)))
    | Local_app ->
      t.c.data_sent <- t.c.data_sent + 1;
      trace t Sim.Trace.Data_sent data.Data.name [ ("face", "local") ];
      ignore
        (sched t ~delay:(proc_delay t) (fun () ->
             dispatch_local t data))
    | Producer_app _ -> () (* producers do not consume data *)

(* Send [data] on every face of [faces] but [except], the face it
   arrived on. *)
(* ndnlint: hot *)
let rec send_data_except t ~except data = function
  | [] -> ()
  | f :: rest ->
    if f <> except then send_data t ~face:f data;
    send_data_except t ~except data rest

(* Emit (or relay) a NACK downstream.  Each send — origin or relay hop
   — is traced under the reason's registered [nack.*] kind. *)
let send_nack t ~face nack =
  if t.nacks && face >= 0 && face < t.n_faces then
    match t.faces.(face) with
    | Wire send ->
      t.c.nacks_sent <- t.c.nacks_sent + 1;
      if Sim.Trace.enabled t.tracer then
        trace t (Nack.trace_kind nack.Nack.reason) nack.Nack.name
          [ ("face", string_of_int face) ];
      ignore
        (sched t ~delay:(proc_delay t) (fun () -> send (Packet.Nack nack)))
    | Local_app ->
      t.c.nacks_sent <- t.c.nacks_sent + 1;
      trace t (Nack.trace_kind nack.Nack.reason) nack.Nack.name
        [ ("face", "local") ];
      ignore
        (sched t ~delay:(proc_delay t) (fun () -> dispatch_local_nack t nack))
    | Producer_app _ -> ()

(* ndnlint: hot *)
let rec relay_nack t ~except nack = function
  | [] -> ()
  | f :: rest ->
    if f <> except then send_nack t ~face:f nack;
    relay_nack t ~except nack rest

(* A NACK consumes exactly the refused entry and travels the reverse
   path like Data — but satisfies nothing, so a later retransmission
   re-forwards.  Nodes with the feature off drop NACKs silently. *)
let handle_nack t ~face nack =
  if not t.alive then t.c.dropped_down <- t.c.dropped_down + 1
  else if t.nacks then begin
    t.c.nacks_received <- t.c.nacks_received + 1;
    relay_nack t ~except:face nack (Pit.take t.pit nack.Nack.name)
  end

let forward_on_wire t ~face send interest =
  t.c.interests_forwarded <- t.c.interests_forwarded + 1;
  if Sim.Trace.enabled t.tracer then
    trace t Sim.Trace.Interest_forwarded interest.Interest.name
      [ ("face", string_of_int face) ];
  ignore (sched t ~delay:(proc_delay t) (fun () -> send (Packet.Interest interest)));
  true

let rec send_interest_on_face t ~face interest =
  match t.faces.(face) with
  | Wire send -> (
    (* One hop of scope budget is consumed per wire traversal; an
       unscoped interest has none to consume. *)
    match interest.Interest.scope with
    | Some _ when t.honor_scope -> (
      match Interest.decrement_scope interest with
      | None ->
        t.c.scope_drops <- t.c.scope_drops + 1;
        false
      | Some interest -> forward_on_wire t ~face send interest)
    | _ -> forward_on_wire t ~face send interest)
  | Producer_app { handler; delay } -> (
    (* An injected outage silences every producer application on this
       node: the interest dies here and the PIT entry times out
       downstream, exactly like an unreachable origin. *)
    if not t.producers_enabled then false
    else begin
      t.c.interests_forwarded <- t.c.interests_forwarded + 1;
      if Sim.Trace.enabled t.tracer then
        trace t Sim.Trace.Interest_forwarded interest.Interest.name
          [ ("face", string_of_int face); ("producer", "true") ];
      match handler interest with
      | None -> false
      | Some data ->
        ignore
          (sched t
             ~delay:(delay *. t.production_factor)
             (fun () ->
               (* The produced object behaves as data arriving on the
                  producer's app face. *)
               handle_data_internal t ~face data));
        true
    end)
  | Local_app ->
    t.c.no_route_drops <- t.c.no_route_drops + 1;
    false

(* --- data path --- *)

and handle_data_internal t ~face data =
  if not t.alive then t.c.dropped_down <- t.c.dropped_down + 1
  else handle_data_alive t ~face data

and handle_data_alive t ~face data =
  let now = Sim.Engine.now t.engine in
  t.c.data_received <- t.c.data_received + 1;
  if Sim.Trace.enabled t.tracer then
    trace t Sim.Trace.Data_received data.Data.name
      [ ("face", string_of_int face) ];
  match Pit.satisfy_timed t.pit data.Data.name with
  | [] -> t.c.unsolicited_data <- t.c.unsolicited_data + 1
  | faces ->
    let fetch_delay = now -. Pit.satisfied_created t.pit in
    if t.caching && t.strat.should_cache ~now data ~fetch_delay then
      Content_store.insert t.cs ~now data ();
    let pad = t.strat.forward_delay ~now data ~fetch_delay in
    if pad <= 0. then send_data_except t ~except:face data faces
    else
      ignore (sched t ~delay:pad (fun () -> send_data_except t ~except:face data faces))

(* --- interest path --- *)

(* The first of [hops] that is not [face], or -1. *)
(* ndnlint: hot *)
let rec first_hop_except face = function
  | [] -> -1
  | f :: rest -> if f <> face then f else first_hop_except face rest

let forward_as_miss t ~now ~face interest =
  let name = interest.Interest.name in
  match Pit.insert t.pit ~now ~face ~nonce:interest.Interest.nonce name with
  | Pit.Duplicate ->
    if t.nacks then
      send_nack t ~face
        (Nack.create ~nonce:interest.Interest.nonce ~reason:Nack.Duplicate name)
  | Pit.Rejected ->
    (* The admission policy refused the entry: the interest dies here.
       With NACKs on, say so instead of letting downstream time out. *)
    if Sim.Trace.enabled t.tracer then
      trace t Sim.Trace.Pit_drop name
        [
          ("policy", Pit.admission_to_string (Pit.admission_policy t.pit));
          ("reason", "reject");
          ("face", string_of_int face);
        ];
    if t.nacks then
      send_nack t ~face
        (Nack.create ~nonce:interest.Interest.nonce ~reason:Nack.Pit_full name)
  | Pit.Collapsed ->
    t.c.interests_collapsed <- t.c.interests_collapsed + 1;
    if Sim.Trace.enabled t.tracer then
      trace t Sim.Trace.Interest_collapsed name [ ("face", string_of_int face) ]
  | Pit.Forward -> (
    (* Ask for a sweep so abandoned entries do not linger forever; the
       node keeps one pending and skips the ones that would find
       nothing (see [sweep_pit]). *)
    request_sweep t ~now;
    let hop = first_hop_except face (Fib.next_hops t.fib name) in
    if hop >= 0 then ignore (send_interest_on_face t ~face:hop interest)
    else begin
      t.c.no_route_drops <- t.c.no_route_drops + 1;
      if t.nacks then begin
        ignore (Pit.take t.pit name);
        send_nack t ~face
          (Nack.create ~nonce:interest.Interest.nonce ~reason:Nack.No_route name)
      end
    end)

let handle_interest_alive t ~face interest =
  let now = Sim.Engine.now t.engine in
  t.c.interests_received <- t.c.interests_received + 1;
  if Sim.Trace.enabled t.tracer then
    trace t Sim.Trace.Interest_received interest.Interest.name
      [ ("face", string_of_int face) ];
  match Content_store.lookup t.cs ~now interest.Interest.name with
  | Some entry -> (
    match t.strat.on_cache_hit ~now interest entry.Content_store.data with
    | Respond ->
      t.c.cache_responses <- t.c.cache_responses + 1;
      send_data t ~face entry.Content_store.data
    | Respond_after delay ->
      t.c.cache_responses <- t.c.cache_responses + 1;
      t.c.delayed_responses <- t.c.delayed_responses + 1;
      let data = entry.Content_store.data in
      ignore
        (sched t ~delay (fun () -> send_data t ~face data))
    | Treat_as_miss -> forward_as_miss t ~now ~face interest)
  | None ->
    t.strat.note_miss ~now interest;
    forward_as_miss t ~now ~face interest

let handle_interest t ~face interest =
  if not t.alive then t.c.dropped_down <- t.c.dropped_down + 1
  else handle_interest_alive t ~face interest

let receive t ~face packet =
  match packet with
  | Packet.Interest i -> handle_interest t ~face i
  | Packet.Data d -> handle_data_internal t ~face d
  | Packet.Nack n -> handle_nack t ~face n

(* --- applications --- *)

let add_producer t ~prefix ?(production_delay_ms = 0.1) handler =
  let face = add_face t (Producer_app { handler; delay = production_delay_ms }) in
  Fib.add_route t.fib ~prefix ~face

(* Give up on the expression claimed under [key]: unregister it and
   notify.  Every other way out of [pending_local] cancels the
   timeout first, so the expression is still registered here. *)
let expression_timed_out t name key =
  match Name_trie.find t.pending_local name with
  | None -> ()
  | Some cell ->
    let gone, keep = List.partition (fun p -> p.key = key) !cell in
    cell := keep;
    if keep = [] then Name_trie.remove t.pending_local name;
    List.iter (fun p -> p.on_timeout ()) gone

let express_interest t ?scope ?(consumer_private = false) ?timeout_ms ~on_data
    ?(on_timeout = fun () -> ()) ?on_nack name =
  (* Claim a fresh trace-stitch key for this expression.  When called
     from a root context (a driver between runs) this gives its
     emissions their own slot in the cross-shard total order; when
     called from inside an event, overriding the event's key is equally
     shard-count-invariant because it happens at the same point of the
     node's deterministic history either way. *)
  let key = fresh_event_key t in
  Sim.Engine.set_cur_key t.engine key;
  let now = Sim.Engine.now t.engine in
  let timeout_ms = Option.value timeout_ms ~default:t.pit_lifetime_ms in
  let cell =
    match Name_trie.find t.pending_local name with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Name_trie.add t.pending_local name cell;
      cell
  in
  let timeout_handle = sched t ~delay:timeout_ms (fun () -> expression_timed_out t name key) in
  cell := { issued = now; key; on_data; on_timeout; on_nack; timeout_handle } :: !cell;
  let interest =
    Interest.create ?scope ~consumer_private ~nonce:(Sim.Rng.bits64 t.rng) name
  in
  (* On a crashed node the expression is still registered (and will
     time out), but the interest itself goes nowhere. *)
  handle_interest t ~face:0 interest

(* --- fault injection: crash and restart --- *)

let is_alive t = t.alive

let crash ?(preserve_cs = false) t =
  if t.alive then begin
    t.alive <- false;
    let now = Sim.Engine.now t.engine in
    (* Local applications die with the forwarder: cancel the armed
       timeouts and fail each pending expression now, exactly once. *)
    let pend = Name_trie.to_list t.pending_local in
    Name_trie.clear t.pending_local;
    List.iter
      (fun (_, cell) ->
        List.iter
          (fun p ->
            Sim.Engine.cancel p.timeout_handle;
            p.on_timeout ())
          (List.rev !cell))
      pend;
    (* The PIT does not survive a reboot; downstream consumers discover
       the loss through their own retransmission timers.  [expire] with
       a far-future clock drains every entry and names them for the
       trace. *)
    let dropped = Pit.expire t.pit ~now:(now +. t.pit_lifetime_ms +. 1.) in
    List.iter
      (fun n -> trace t Sim.Trace.Pit_timeout n [ ("reason", "crash") ])
      dropped;
    if not preserve_cs then Content_store.flush t.cs ~now
  end

let restart t = t.alive <- true

(* --- fault injection: producer applications --- *)

let set_producers_enabled t enabled = t.producers_enabled <- enabled

let set_production_factor t factor =
  if factor <= 0. || not (Float.is_finite factor) then
    invalid_arg "Node.set_production_factor: factor must be positive";
  t.production_factor <- factor

(* --- introspection --- *)

let counters t =
  {
    interests_received = t.c.interests_received;
    interests_forwarded = t.c.interests_forwarded;
    interests_collapsed = t.c.interests_collapsed;
    data_received = t.c.data_received;
    data_sent = t.c.data_sent;
    cache_responses = t.c.cache_responses;
    delayed_responses = t.c.delayed_responses;
    scope_drops = t.c.scope_drops;
    no_route_drops = t.c.no_route_drops;
    unsolicited_data = t.c.unsolicited_data;
    dropped_down = t.c.dropped_down;
    nacks_sent = t.c.nacks_sent;
    nacks_received = t.c.nacks_received;
  }
