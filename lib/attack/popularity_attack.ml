type result = {
  trials : int;
  exact_rate : float;
  mean_abs_error : float;
  mean_posterior_entropy_bits : float;
}

let count_prior ~max_count = Privacy.Dist.uniform_int (max_count + 1)

let estimate ~kdist ~max_count ~probes ~observed_misses =
  Privacy.Bayes.posterior ~k_dist:(Core.Kdist.to_dist kdist)
    ~count_prior:(count_prior ~max_count) ~probes ~observed_misses

let default_probes kdist =
  match kdist with
  | Core.Kdist.Uniform domain -> domain + 2
  | Core.Kdist.Truncated_geometric { domain; _ } -> domain + 2
  | Core.Kdist.Constant k -> k + 2
  | Core.Kdist.Weighted pairs ->
    2 + List.fold_left (fun acc (k, _) -> max acc k) 0 pairs

let run ~kdist ~true_count ~max_count ?(trials = 500) () =
  let probes = default_probes kdist in
  let rng = Sim.Rng.create 5 in
  let name = Ndn.Name.of_string "/victim/content" in
  let exact = ref 0 and abs_err = ref 0 and entropy_acc = ref 0. in
  for _ = 1 to trials do
    let rc = Core.Random_cache.create ~kdist ~rng:(Sim.Rng.split rng) () in
    for _ = 1 to true_count do
      ignore (Core.Random_cache.on_request rc name)
    done;
    let misses = ref 0 in
    for _ = 1 to probes do
      match Core.Random_cache.on_request rc name with
      | Core.Random_cache.Miss -> incr misses
      | Core.Random_cache.Hit -> ()
    done;
    let posterior = estimate ~kdist ~max_count ~probes ~observed_misses:!misses in
    let guess = Privacy.Bayes.map_estimate posterior in
    if guess = true_count then incr exact;
    abs_err := !abs_err + abs (guess - true_count);
    entropy_acc := !entropy_acc +. Privacy.Bayes.entropy posterior
  done;
  {
    trials;
    exact_rate = float_of_int !exact /. float_of_int trials;
    mean_abs_error = float_of_int !abs_err /. float_of_int trials;
    mean_posterior_entropy_bits = !entropy_acc /. float_of_int trials;
  }

let information_leak_bits ~kdist ~max_count ~probes =
  Privacy.Bayes.mutual_information ~k_dist:(Core.Kdist.to_dist kdist)
    ~count_prior:(count_prior ~max_count) ~probes
