type config = {
  users : int;
  req_per_user_per_hour : float;
  catalog : int;
  zipf_s : float;
  diurnal_amplitude : float;
  diurnal_period_ms : float;
  diurnal_phase_ms : float;
  consumer_private : bool;
  max_retries : int;
  record_ranks : bool;
}

let default =
  {
    users = 10_000;
    req_per_user_per_hour = 6.;
    catalog = 10_000;
    zipf_s = 0.85;
    diurnal_amplitude = 0.5;
    diurnal_period_ms = 86_400_000.;
    diurnal_phase_ms = 0.;
    consumer_private = false;
    max_retries = 2;
    record_ranks = false;
  }

let base_rate_per_ms c =
  float_of_int c.users *. c.req_per_user_per_hour /. 3_600_000.

type t = {
  config : config;
  engine : Sim.Engine.t;
  node : Ndn.Node.t;
  prefix : Ndn.Name.t;
  rng : Sim.Rng.t;
  zipf : Zipf.t;
  estimator : Ndn.Consumer.Rtt_estimator.t;
  until : float option;
  mutable active : bool;
  mutable requests_issued : int;
  mutable responses : int;
  mutable timeouts : int;
  rank_counts : int array option;
}

let validate c =
  if c.users <= 0 then invalid_arg "Aggregate: users must be positive";
  if not (Float.is_finite c.req_per_user_per_hour)
     || c.req_per_user_per_hour <= 0.
  then invalid_arg "Aggregate: req_per_user_per_hour must be positive";
  if c.catalog <= 0 then invalid_arg "Aggregate: catalog must be positive";
  if not (Float.is_finite c.diurnal_amplitude)
     || c.diurnal_amplitude < 0.
     || c.diurnal_amplitude > 1.
  then invalid_arg "Aggregate: diurnal_amplitude must lie in [0, 1]";
  if not (Float.is_finite c.diurnal_period_ms) || c.diurnal_period_ms <= 0.
  then invalid_arg "Aggregate: diurnal_period_ms must be positive"

let two_pi = 8. *. Float.atan 1.

(* Instantaneous arrival rate of the modulated process. *)
let rate_at c now =
  base_rate_per_ms c
  *. (1.
      +. c.diurnal_amplitude
         *. Float.sin
              (two_pi *. (now -. c.diurnal_phase_ms) /. c.diurnal_period_ms))

let issue t =
  let rank = Zipf.sample t.zipf t.rng in
  (match t.rank_counts with
  | Some counts -> counts.(rank - 1) <- counts.(rank - 1) + 1
  | None -> ());
  let name = Ndn.Name.append t.prefix (string_of_int rank) in
  t.requests_issued <- t.requests_issued + 1;
  Ndn.Consumer.fetch t.node ~max_retries:t.config.max_retries
    ~estimator:t.estimator ~consumer_private:t.config.consumer_private
    ~on_done:(fun (outcome : Ndn.Consumer.outcome) ->
      match outcome.data with
      | Some _ -> t.responses <- t.responses + 1
      | None -> t.timeouts <- t.timeouts + 1)
    name

(* Ogata thinning: candidate arrivals at the constant peak rate
   [base × (1 + A)], each accepted with probability [rate(t)/peak].
   Candidate times and the accept draw are consumed unconditionally, so
   the RNG stream advances identically whatever the modulation does —
   amplitude changes which candidates become requests, never how much
   randomness the stream eats. *)
let rec schedule_next t =
  if t.active then begin
    let peak = base_rate_per_ms t.config *. (1. +. t.config.diurnal_amplitude) in
    let dt = Sim.Rng.exponential t.rng ~rate:peak in
    let fire = Sim.Engine.now t.engine +. dt in
    match t.until with
    | Some stop_at when fire > stop_at -> t.active <- false
    | _ ->
      (* Keyed through the node so the arrival events stay ordered
         shard-count-invariantly when the node lives in a Sim.Shard
         partition (a plain engine FIFO tie-break would depend on what
         else shares the engine). *)
      Ndn.Node.schedule_app t.node ~delay:dt (fun () ->
          if t.active then begin
            let u = Sim.Rng.float t.rng 1. in
            if u *. peak <= rate_at t.config (Sim.Engine.now t.engine) then
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
      zipf = Zipf.create ~n:config.catalog ~s:config.zipf_s;
      estimator = Ndn.Consumer.Rtt_estimator.create ();
      until;
      active = true;
      requests_issued = 0;
      responses = 0;
      timeouts = 0;
      rank_counts =
        (if config.record_ranks then Some (Array.make config.catalog 0)
         else None);
    }
  in
  schedule_next t;
  t

let requests_issued t = t.requests_issued

let responses t = t.responses

let timeouts t = t.timeouts

let rank_counts t = t.rank_counts
