type phase = {
  phase_start : float;
  phase_end : float;
  phase_warm : int;
  phase_cold : int;
  phase_accuracy : float;
  phase_fnr : float;
}

type result = {
  hit_samples : float array;
  miss_samples : float array;
  hit_hist : Sim.Histogram.t;
  miss_hist : Sim.Histogram.t;
  success_rate : float;
  timeouts : int;
  trace : Sim.Trace.t;
  phases : phase list;
}

(* One measurement run over a fresh setup = the paper's "every time
   starting with an empty cache for R".  Runs are mutually independent
   (run [r] is a pure function of [seed + r]), which is what lets
   [collect] fan them out over domains below.

   Each observation is (issue time, rtt option): the timestamp costs
   nothing behavioural — no extra RNG draws or engine events — and lets
   faulted campaigns attribute every probe to a fault phase. *)
let collect_run ~make_setup ~contents ~seed ~trace run =
  let warm_obs = ref [] and cold_obs = ref [] in
  (* A per-run tracer keeps each domain writing to its own buffer; the
     buffers are merged in run order afterwards. *)
  let tracer = if trace then Sim.Trace.create () else Sim.Trace.disabled in
  let setup = make_setup ~seed:(seed + run) ~tracer in
  let net = setup.Ndn.Network.net in
  for i = 0 to contents - 1 do
    let warm_name =
      Ndn.Name.of_string (Printf.sprintf "/prod/run%d/warm/%d" run i)
    in
    let cold_name =
      Ndn.Name.of_string (Printf.sprintf "/prod/run%d/cold/%d" run i)
    in
    Probe.warm setup warm_name;
    let issued = Ndn.Network.now net in
    warm_obs :=
      (issued, Probe.measure setup ~from:setup.Ndn.Network.adversary warm_name)
      :: !warm_obs;
    let issued = Ndn.Network.now net in
    cold_obs :=
      (issued, Probe.measure setup ~from:setup.Ndn.Network.adversary cold_name)
      :: !cold_obs
  done;
  (List.rev !warm_obs, List.rev !cold_obs, tracer)

(* The faulted variant.  [Probe.measure] drains the whole event queue,
   which with a schedule installed would fire every fault during the
   first probe; instead each warm-probe-probe triple is scheduled at a
   fixed virtual time and the engine runs once, so probes genuinely
   interleave with the fault timeline. *)
let collect_run_faulted ~make_setup ~contents ~seed ~trace ~faults ~interval
    ~lag run =
  let warm_obs = ref [] and cold_obs = ref [] in
  let tracer = if trace then Sim.Trace.create () else Sim.Trace.disabled in
  let setup = make_setup ~seed:(seed + run) ~tracer in
  let net = setup.Ndn.Network.net in
  (match Ndn.Network.install_faults net faults with
  | Ok () -> ()
  | Error msg ->
    invalid_arg ("Timing_experiment: fault schedule rejected: " ^ msg));
  let user = setup.Ndn.Network.user in
  let adversary = setup.Ndn.Network.adversary in
  (* The adversary's own shard engine: reading any other shard's clock
     from inside a callback would race. *)
  let adv_engine = Ndn.Node.engine adversary in
  for i = 0 to contents - 1 do
    let warm_name =
      Ndn.Name.of_string (Printf.sprintf "/prod/run%d/warm/%d" run i)
    in
    let cold_name =
      Ndn.Name.of_string (Printf.sprintf "/prod/run%d/cold/%d" run i)
    in
    let at = float_of_int i *. interval in
    (* The user's request and the adversary's probe are [lag] apart, as
       in the real attack (the adversary does not observe the user's
       fetch).  A router reboot landing inside that window flushes the
       cache and turns the warm probe into a false negative — exactly
       the signal-degradation mechanism churn buys.  Scheduled through
       the issuing node so the events stay keyed (and therefore
       shard-count-invariant). *)
    Ndn.Node.schedule_app_at user ~time:at (fun () ->
        Ndn.Node.express_interest user
          ~on_data:(fun ~rtt_ms:_ _ -> ())
          warm_name);
    Ndn.Node.schedule_app_at adversary ~time:(at +. lag) (fun () ->
        let probe obs name k =
          let issued = Sim.Engine.now adv_engine in
          Ndn.Node.express_interest adversary
            ~on_data:(fun ~rtt_ms _ ->
              obs := (issued, Some rtt_ms) :: !obs;
              k ())
            ~on_timeout:(fun () ->
              obs := (issued, None) :: !obs;
              k ())
            name
        in
        (* probe warm (hit sample) then cold (miss sample), the
           cold chained so its RTT is not polluted by the warm
           probe's own traffic. *)
        probe warm_obs warm_name (fun () ->
            probe cold_obs cold_name (fun () -> ())))
  done;
  Ndn.Network.run net;
  (List.rev !warm_obs, List.rev !cold_obs, tracer)

let default_interval ~faults ~contents =
  let horizon =
    List.fold_left Float.max 0. (Sim.Fault.phase_boundaries faults)
  in
  Float.max 50. ((horizon +. 1000.) /. float_of_int (max 1 contents))

let collect ?jobs ?(shards = 1) ?(trace = false) ~faults ~make_setup
    ~contents ~runs ~seed () =
  (* Per-run sample lists (and trace buffers) are concatenated in run
     order, so the merged arrays — and the exported trace bytes — are
     identical to a sequential (jobs = 1) campaign. *)
  let jobs =
    (* Both fan-out axes multiply: [jobs] trial workers each spinning a
       [shards]-domain partition.  An unspecified [jobs] is derated so
       the product stays within the hardware; an explicit one is only
       validated. *)
    match jobs with
    | Some j -> j
    | None -> max 1 (Sim.Parallel.default_jobs () / max 1 shards)
  in
  (match Sim.Parallel.check_domains ~jobs:(max 1 (min jobs runs)) ~shards with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Timing_experiment: " ^ msg));
  let runner =
    if faults = [] then collect_run ~make_setup ~contents ~seed ~trace
    else
      let interval = default_interval ~faults ~contents in
      collect_run_faulted ~make_setup ~contents ~seed ~trace ~faults ~interval
        ~lag:(interval /. 2.)
  in
  let per_run = Sim.Parallel.map ~jobs runs runner in
  let warm_obs =
    List.concat_map (fun (w, _, _) -> w) (Array.to_list per_run)
  in
  let cold_obs =
    List.concat_map (fun (_, c, _) -> c) (Array.to_list per_run)
  in
  let merged =
    if trace then begin
      let into = Sim.Trace.create () in
      Array.iter (fun (_, _, tr) -> Sim.Trace.merge_into ~into tr) per_run;
      into
    end
    else Sim.Trace.disabled
  in
  (Array.of_list warm_obs, Array.of_list cold_obs, merged)

(* [0, b1), [b1, b2), …, [bn, ∞): one segment per network regime. *)
let segments faults =
  let rec go start = function
    | [] -> [ (start, infinity) ]
    | b :: rest -> if b <= start then go start rest else (start, b) :: go b rest
  in
  go 0. (Sim.Fault.phase_boundaries faults)

let phase_metrics ~detector ~warm_obs ~cold_obs (phase_start, phase_end) =
  let in_window (t, _) = t >= phase_start && t < phase_end in
  let warm = Array.to_list warm_obs |> List.filter in_window in
  let cold = Array.to_list cold_obs |> List.filter in_window in
  (* A warm probe answered slower than the threshold — or not at all —
     is a false negative: the adversary concludes the user did not
     request the content. *)
  let classified_hit = function
    | _, Some rtt -> Detector.classify detector rtt = Detector.Hit
    | _, None -> false
  in
  let count p l = List.length (List.filter p l) in
  let warm_hits = count classified_hit warm in
  let cold_misses = count (fun o -> not (classified_hit o)) cold in
  let ratio num den =
    if den = 0 then Float.nan else float_of_int num /. float_of_int den
  in
  let tpr = ratio warm_hits (List.length warm) in
  let tnr = ratio cold_misses (List.length cold) in
  {
    phase_start;
    phase_end;
    phase_warm = List.length warm;
    phase_cold = List.length cold;
    phase_accuracy = (tpr +. tnr) /. 2.;
    phase_fnr = 1. -. tpr;
  }

let summarize ~bins ~faults (warm_obs, cold_obs, trace) =
  let successes obs =
    Array.to_list obs
    |> List.filter_map (fun (_, rtt) -> rtt)
    |> Array.of_list
  in
  let hit_samples = successes warm_obs in
  let miss_samples = successes cold_obs in
  let timeouts =
    let missing obs =
      Array.fold_left
        (fun acc (_, rtt) -> if rtt = None then acc + 1 else acc)
        0 obs
    in
    missing warm_obs + missing cold_obs
  in
  let lo =
    Float.min
      (Array.fold_left Float.min infinity hit_samples)
      (Array.fold_left Float.min infinity miss_samples)
  in
  let hi =
    Float.max
      (Array.fold_left Float.max neg_infinity hit_samples)
      (Array.fold_left Float.max neg_infinity miss_samples)
  in
  let hi = if hi <= lo then lo +. 1. else hi +. 1e-6 in
  let hit_hist = Sim.Histogram.create ~lo ~hi ~bins in
  let miss_hist = Sim.Histogram.create ~lo ~hi ~bins in
  Array.iter (Sim.Histogram.add hit_hist) hit_samples;
  Array.iter (Sim.Histogram.add miss_hist) miss_samples;
  let success_rate = Detector.success_rate ~hit_samples ~miss_samples () in
  let phases =
    if
      faults = []
      || Array.length hit_samples = 0
      || Array.length miss_samples = 0
    then []
    else
      let detector = Detector.train ~hit_samples ~miss_samples in
      List.map
        (phase_metrics ~detector ~warm_obs ~cold_obs)
        (segments faults)
  in
  {
    hit_samples;
    miss_samples;
    hit_hist;
    miss_hist;
    success_rate;
    timeouts;
    trace;
    phases;
  }

let run ~make_setup ?(contents = 100) ?(runs = 10) ?(seed = 7) ?(bins = 40)
    ?jobs ?shards ?trace ?(faults = []) () =
  summarize ~bins ~faults
    (collect ?jobs ?shards ?trace ~faults ~make_setup ~contents ~runs ~seed ())

let false_negative_rate r =
  (* Warm-probe-weighted average of the per-phase rates; [nan] when the
     campaign ran without faults (no phases). *)
  match List.filter (fun p -> p.phase_warm > 0) r.phases with
  | [] -> Float.nan
  | ps ->
    let n = List.fold_left (fun acc p -> acc + p.phase_warm) 0 ps in
    List.fold_left
      (fun acc p -> acc +. (p.phase_fnr *. float_of_int p.phase_warm))
      0. ps
    /. float_of_int n

let pp_result ppf r =
  Format.fprintf ppf
    "hits: n=%d mean=%.3fms  misses: n=%d mean=%.3fms  timeouts=%d@."
    (Array.length r.hit_samples)
    (Sim.Stats.mean_of r.hit_samples)
    (Array.length r.miss_samples)
    (Sim.Stats.mean_of r.miss_samples)
    r.timeouts;
  Sim.Histogram.pp_two ~labels:("cache hit", "cache miss") ppf
    (r.hit_hist, r.miss_hist);
  Format.fprintf ppf "distinguisher success rate: %.2f%%@."
    (100. *. r.success_rate);
  if r.phases <> [] then begin
    Format.fprintf ppf
      "per-phase separability (phases delimited by fault events):@.";
    List.iter
      (fun p ->
        let fmt_end =
          if Float.is_integer p.phase_end && Float.is_finite p.phase_end then
            Printf.sprintf "%.0f" p.phase_end
          else if Float.is_finite p.phase_end then
            Printf.sprintf "%.1f" p.phase_end
          else "end"
        in
        Format.fprintf ppf
          "  [%8.0f, %8s) ms  warm=%-4d cold=%-4d accuracy=%s fnr=%s@."
          p.phase_start fmt_end p.phase_warm p.phase_cold
          (if Float.is_nan p.phase_accuracy then "  n/a"
           else Printf.sprintf "%5.1f%%" (100. *. p.phase_accuracy))
          (if Float.is_nan p.phase_fnr then "  n/a"
           else Printf.sprintf "%5.1f%%" (100. *. p.phase_fnr)))
      r.phases
  end
