module Rtt_estimator = struct
  type t = {
    mutable srtt : float option;
    mutable rttvar : float;
    mutable rto : float;
    mutable n : int;
  }

  let min_rto = 10.
  let max_rto = 60_000.

  let create ?(initial_rto_ms = 1000.) () =
    { srtt = None; rttvar = 0.; rto = initial_rto_ms; n = 0 }

  let clamp v = Float.min max_rto (Float.max min_rto v)

  let observe t ~rtt_ms =
    t.n <- t.n + 1;
    (match t.srtt with
    | None ->
      t.srtt <- Some rtt_ms;
      t.rttvar <- rtt_ms /. 2.
    | Some srtt ->
      (* RFC 6298 constants: alpha = 1/8, beta = 1/4. *)
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (srtt -. rtt_ms));
      t.srtt <- Some ((0.875 *. srtt) +. (0.125 *. rtt_ms)));
    t.rto <- clamp (Option.get t.srtt +. (4. *. t.rttvar))

  let srtt t = t.srtt

  let rto t = t.rto

  let backoff t = t.rto <- clamp (t.rto *. 2.)

  let samples t = t.n
end

type backoff = {
  base_ms : float;
  bo_factor : float;
  jitter : float;
  max_delay_ms : float;
  bo_rng : Sim.Rng.t;
}

let backoff ?(base_ms = 10.) ?(factor = 2.) ?(jitter = 0.1)
    ?(max_delay_ms = 10_000.) rng =
  if not (base_ms > 0. && Float.is_finite base_ms) then
    invalid_arg "Consumer.backoff: base_ms must be positive and finite";
  if not (factor >= 1. && Float.is_finite factor) then
    invalid_arg "Consumer.backoff: factor must be >= 1";
  if not (jitter >= 0. && jitter < 1.) then
    invalid_arg "Consumer.backoff: jitter must be in [0, 1)";
  if not (max_delay_ms >= base_ms) then
    invalid_arg "Consumer.backoff: max_delay_ms must be >= base_ms";
  { base_ms; bo_factor = factor; jitter; max_delay_ms; bo_rng = rng }

(* Delay before re-attempt [n + 1] after attempt [n] (1-based) failed:
   exponential in [n], capped, then spread by at most [+-jitter]
   (drawn from the policy's own generator, so consumers never perturb
   the node or network streams). *)
let backoff_delay b ~attempt =
  let raw = b.base_ms *. (b.bo_factor ** float_of_int (attempt - 1)) in
  let capped = Float.min b.max_delay_ms raw in
  if b.jitter = 0. then capped
  else begin
    let u = Sim.Rng.float b.bo_rng 1.0 in
    capped *. (1. +. (b.jitter *. ((2. *. u) -. 1.)))
  end

type outcome = {
  data : Data.t option;
  attempts : int;
  elapsed_ms : float;
  nacks : int;
}

let fetch node ?(max_retries = 3) ?estimator ?backoff ?consumer_private
    ~on_done name =
  let estimator =
    match estimator with Some e -> e | None -> Rtt_estimator.create ()
  in
  let engine = Node.engine node in
  let started = Sim.Engine.now engine in
  let finished = ref false in
  let nacks = ref 0 in
  let give_up n =
    finished := true;
    (* The give-up record belongs to the robust plane: emitting it from
       a plain (no-backoff) fetch would perturb golden legacy traces. *)
    (match backoff with
    | Some _ ->
      let tr = Node.tracer node in
      if Sim.Trace.enabled tr then
        Sim.Trace.emit tr
          {
            Sim.Trace.time = Sim.Engine.now engine;
            node = Node.label node;
            kind = Sim.Trace.Consumer_give_up;
            name = Name.to_string name;
            attrs =
              [
                ("attempts", string_of_int n);
                ("nacks", string_of_int !nacks);
              ];
          }
    | None -> ());
    on_done
      {
        data = None;
        attempts = n;
        elapsed_ms = Sim.Engine.now engine -. started;
        nacks = !nacks;
      }
  in
  let rec attempt n =
    if not !finished then begin
      let retry_later () =
        match backoff with
        | None -> attempt (n + 1)
        | Some b ->
          Node.schedule_app node ~delay:(backoff_delay b ~attempt:n) (fun () ->
              attempt (n + 1))
      in
      let on_nack =
        match backoff with
        | None -> None
        | Some _ ->
          (* A NACK is a fast negative: the refusal arrives one RTT
             after the interest instead of a full RTO later, so retry
             (or give up) immediately, after only the backoff delay.
             The RTO estimator is left alone — a refusal says nothing
             about the path's round-trip time. *)
          Some
            (fun (_ : Nack.reason) ->
              if not !finished then begin
                incr nacks;
                if n <= max_retries then retry_later () else give_up n
              end)
      in
      Node.express_interest node ?consumer_private
        ~timeout_ms:(Rtt_estimator.rto estimator)
        ~on_data:(fun ~rtt_ms data ->
          if not !finished then begin
            finished := true;
            (* Karn's algorithm: a sample taken after a retransmission
               is ambiguous — the data may answer the original interest
               (inflated RTT) or the re-issued one — so it must not
               feed the estimator.  The backed-off RTO is kept. *)
            if n = 1 then Rtt_estimator.observe estimator ~rtt_ms;
            on_done
              {
                data = Some data;
                attempts = n;
                elapsed_ms = Sim.Engine.now engine -. started;
                nacks = !nacks;
              }
          end)
        ~on_timeout:(fun () ->
          if not !finished then
            if n <= max_retries then begin
              Rtt_estimator.backoff estimator;
              retry_later ()
            end
            else give_up n)
        ?on_nack name
    end
  in
  attempt 1

let fetch_sequence node ?max_retries ?backoff ~names ~on_done () =
  let estimator = Rtt_estimator.create () in
  let rec go acc = function
    | [] -> on_done (List.rev acc)
    | name :: rest ->
      fetch node ?max_retries ~estimator ?backoff
        ~on_done:(fun outcome -> go (outcome :: acc) rest)
        name
  in
  go [] names
