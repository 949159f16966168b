type config = {
  rate_per_ms : float;
  scope : int option;
  timeout_ms : float option;
}

let default = { rate_per_ms = 1.; scope = None; timeout_ms = None }

let validate c =
  if not (Float.is_finite c.rate_per_ms) || c.rate_per_ms <= 0. then
    invalid_arg "Flood: rate_per_ms must be positive";
  match c.timeout_ms with
  | Some ms when (not (Float.is_finite ms)) || ms <= 0. ->
    invalid_arg "Flood: timeout_ms must be positive"
  | _ -> ()

type t = {
  config : config;
  engine : Sim.Engine.t;
  node : Ndn.Node.t;
  prefix : Ndn.Name.t;
  rng : Sim.Rng.t;
  until : float option;
  mutable active : bool;
  mutable seq : int;
  mutable interests_issued : int;
  mutable nacks_received : int;
  mutable timeouts : int;
}

(* One flood interest: a never-before-used name under the flood
   namespace.  Sequence numbers (not random draws) keep names unique —
   uniqueness is what defeats both collapsing and the victim's Content
   Store, and it costs no randomness, so the RNG stream is exactly the
   Poisson arrival process. *)
let issue t =
  let name = Ndn.Name.append t.prefix (string_of_int t.seq) in
  t.seq <- t.seq + 1;
  t.interests_issued <- t.interests_issued + 1;
  Ndn.Node.express_interest t.node ?scope:t.config.scope
    ?timeout_ms:t.config.timeout_ms
    ~on_data:(fun ~rtt_ms:_ _ -> ())
    ~on_timeout:(fun () -> t.timeouts <- t.timeouts + 1)
    ~on_nack:(fun _ -> t.nacks_received <- t.nacks_received + 1)
    name

let rec schedule_next t =
  if t.active then begin
    let dt = Sim.Rng.exponential t.rng ~rate:t.config.rate_per_ms in
    let fire = Sim.Engine.now t.engine +. dt in
    match t.until with
    | Some stop_at when fire > stop_at -> t.active <- false
    | _ ->
      Ndn.Node.schedule_app t.node ~delay:dt (fun () ->
          if t.active then begin
            issue t;
            schedule_next t
          end)
  end

let attach config ~node ~prefix ~rng ?until () =
  validate config;
  let t =
    {
      config;
      engine = Ndn.Node.engine node;
      node;
      prefix;
      rng;
      until;
      active = true;
      seq = 0;
      interests_issued = 0;
      nacks_received = 0;
      timeouts = 0;
    }
  in
  schedule_next t;
  t

let interests_issued t = t.interests_issued

let nacks_received t = t.nacks_received

let timeouts t = t.timeouts
