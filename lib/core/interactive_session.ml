type naming = Predictable | Unpredictable of string

(* Each endpoint's counters are touched only by its own node's events,
   so the two sides may run on different shards' domains. *)
type endpoint = {
  node : Ndn.Node.t;
  prefix : Ndn.Name.t;
  key : string;
  session : Unpredictable_names.session option;
  mutable received : int;
  rtt_stats : Sim.Stats.t;
}

type t = {
  a : endpoint;
  b : endpoint;
  frames : int;
}

let name_of endpoint ~seq =
  match endpoint.session with
  | Some session -> Unpredictable_names.name_of_seq session ~seq
  | None -> Ndn.Name.append endpoint.prefix (string_of_int seq)

let freshness_ms = 30_000.

let install_producer endpoint =
  let label = Ndn.Node.label endpoint.node in
  Ndn.Node.add_producer endpoint.node ~prefix:endpoint.prefix
    ~production_delay_ms:0.05 (fun interest ->
      let name = interest.Ndn.Interest.name in
      let payload seq = Printf.sprintf "%s-frame-%06d" label seq in
      match endpoint.session with
      | Some session -> (
        (* Serve only authentic session names, with strict matching so
           prefix probing cannot extract frames from caches. *)
        match Unpredictable_names.verify_name session name with
        | Some seq ->
          Some
            (Unpredictable_names.make_data session ~producer:label
               ~key:endpoint.key ~freshness_ms ~payload:(payload seq) ~seq ())
        | None -> None)
      | None -> (
        match
          if Ndn.Name.is_strict_prefix ~prefix:endpoint.prefix name then
            Option.bind (Ndn.Name.last name) int_of_string_opt
          else None
        with
        | Some seq when seq >= 0 ->
          Some
            (Ndn.Data.create ~freshness_ms ~producer:label ~key:endpoint.key
               ~payload:(payload seq) name)
        | Some _ | None -> None))

let start (setup : Ndn.Network.conversation_setup) ~naming ~frames () =
  let make_endpoint node prefix key who =
    let session =
      match naming with
      | Predictable -> None
      | Unpredictable secret ->
        Some
          (Unpredictable_names.create
             ~secret:(secret ^ "|" ^ who)
             ~prefix)
    in
    { node; prefix; key; session; received = 0; rtt_stats = Sim.Stats.create () }
  in
  let a =
    make_endpoint setup.Ndn.Network.alice setup.Ndn.Network.alice_prefix
      setup.Ndn.Network.alice_key "alice"
  in
  let b =
    make_endpoint setup.Ndn.Network.bob setup.Ndn.Network.bob_prefix
      setup.Ndn.Network.bob_key "bob"
  in
  install_producer a;
  install_producer b;
  (* Schedule the cadence: at tick i, each side pulls the peer's frame
     i, as an event keyed on its own node.  A real client would
     retransmit on loss; links here are lossless so a single expression
     suffices. *)
  let pull self peer ~seq ~at =
    Ndn.Node.schedule_app_at self.node ~time:at (fun () ->
        Ndn.Node.express_interest self.node
          ~on_data:(fun ~rtt_ms _ ->
            self.received <- self.received + 1;
            Sim.Stats.add self.rtt_stats rtt_ms)
          (name_of peer ~seq))
  in
  for seq = 0 to frames - 1 do
    let at = float_of_int (seq + 1) *. 20. in
    pull a b ~seq ~at;
    pull b a ~seq ~at
  done;
  { a; b; frames }

let frames_delivered t = (t.a.received, t.b.received)

let complete t = t.a.received = t.frames && t.b.received = t.frames

let frame_name t who ~seq =
  match who with `Alice -> name_of t.a ~seq | `Bob -> name_of t.b ~seq

let mean_frame_rtt t = Sim.Stats.mean (Sim.Stats.merge t.a.rtt_stats t.b.rtt_stats)
