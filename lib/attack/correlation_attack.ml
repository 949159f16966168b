type result = {
  related_contents : int;
  trials : int;
  adversary_accuracy : float;
}

let related_name i = Ndn.Name.of_string (Printf.sprintf "/site/album/photo-%d" i)

let run ~grouping ~kdist ~related_contents ~prior_requests ?(trials = 400) () =
  let rng = Sim.Rng.create 23 in
  let registry = Ndn.Name.Tbl.create 16 in
  (* All related contents belong to one producer-declared group for
     the By_content_id case. *)
  for i = 0 to related_contents - 1 do
    Core.Grouping.register_id ~registry ~name:(related_name i) ~id:"album-1"
  done;
  let correct = ref 0 in
  for trial = 0 to trials - 1 do
    let rc = Core.Random_cache.create ~kdist ~rng:(Sim.Rng.split rng) () in
    let requested = trial mod 2 = 0 in
    if requested then
      (* Honest consumers fetched the whole set, [prior_requests]
         times each, interleaved (the correlated access pattern). *)
      for _round = 1 to prior_requests do
        for i = 0 to related_contents - 1 do
          let key = Core.Grouping.key grouping ~registry (related_name i) in
          ignore (Core.Random_cache.on_request rc key)
        done
      done;
    let saw_hit = ref false in
    for i = 0 to related_contents - 1 do
      let key = Core.Grouping.key grouping ~registry (related_name i) in
      match Core.Random_cache.on_request rc key with
      | Core.Random_cache.Hit -> saw_hit := true
      | Core.Random_cache.Miss -> ()
    done;
    if !saw_hit = requested then incr correct
  done;
  {
    related_contents;
    trials;
    adversary_accuracy = float_of_int !correct /. float_of_int trials;
  }

let advantage_theoretical ~kdist ~related_contents ~prior_requests =
  if prior_requests <= 0 then 0.5
  else begin
    let dist = Core.Kdist.to_dist kdist in
    (* Probe of a warmed content is its (prior+1)-th request with
       counter value prior; hit iff prior > k_C. *)
    let q =
      Privacy.Dist.fold dist ~init:0. ~f:(fun acc k p ->
          if k < prior_requests then acc +. p else acc)
    in
    let p_any = 1. -. ((1. -. q) ** float_of_int related_contents) in
    (* When the set was never requested, every probe is a first
       request: always a miss, so that side is classified perfectly. *)
    0.5 +. (p_any /. 2.)
  end
