let theoretical_success ~p ~segments =
  if p < 0. || p > 1. then invalid_arg "Segment_attack: p out of range";
  if segments < 1 then invalid_arg "Segment_attack: segments must be >= 1";
  1. -. ((1. -. p) ** float_of_int segments)

let paper_example_row ~segments = theoretical_success ~p:0.59 ~segments

type result = {
  per_object_success : float;
  amplified_success : float;
  predicted : float;
}

let segment_name ~trial ~kind ~seg =
  Ndn.Name.of_string (Printf.sprintf "/prod/seg%d/%s/%d" trial kind seg)

let run ~make_setup ~segments ?(trials = 60) () =
  let seed = 11 in
  (* Phase 1: train the per-segment detector on reference content in a
     dedicated setup. *)
  let train_setup = make_setup ~seed in
  let n_train = 60 in
  let hit_ref = Array.make n_train 0. and miss_ref = Array.make n_train 0. in
  for i = 0 to n_train - 1 do
    let w = segment_name ~trial:(-1) ~kind:"warm" ~seg:i in
    let c = segment_name ~trial:(-1) ~kind:"cold" ~seg:i in
    Probe.warm train_setup w;
    (match Probe.measure train_setup ~from:train_setup.Ndn.Network.adversary w with
    | Some r -> hit_ref.(i) <- r
    | None -> ());
    match Probe.measure train_setup ~from:train_setup.Ndn.Network.adversary c with
    | Some r -> miss_ref.(i) <- r
    | None -> ()
  done;
  let detector = Detector.train ~hit_samples:hit_ref ~miss_samples:miss_ref in
  (* Phase 2: per trial, flip whether U fetched the multi-segment
     content; adversary probes each segment and votes. *)
  let single_correct = ref 0 and single_total = ref 0 in
  let vote_correct = ref 0 in
  for trial = 0 to trials - 1 do
    let setup = make_setup ~seed:(seed + 1 + trial) in
    let was_fetched = trial mod 2 = 0 in
    let names =
      List.init segments (fun seg -> segment_name ~trial ~kind:"target" ~seg)
    in
    if was_fetched then List.iter (Probe.warm setup) names;
    let votes_hit = ref 0 and votes_miss = ref 0 in
    List.iter
      (fun name ->
        match Probe.measure setup ~from:setup.Ndn.Network.adversary name with
        | Some rtt ->
          let v = Detector.classify detector rtt in
          incr single_total;
          let correct = (v = Detector.Hit) = was_fetched in
          if correct then incr single_correct;
          if v = Detector.Hit then incr votes_hit else incr votes_miss
        | None -> incr votes_miss)
      names;
    let guess_fetched = !votes_hit > !votes_miss in
    if guess_fetched = was_fetched then incr vote_correct
  done;
  let per_object_success =
    if !single_total = 0 then 0.
    else float_of_int !single_correct /. float_of_int !single_total
  in
  {
    per_object_success;
    amplified_success = float_of_int !vote_correct /. float_of_int trials;
    predicted = theoretical_success ~p:per_object_success ~segments;
  }
