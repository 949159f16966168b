type outcome = { probes_used : int; recovered_count : int }

let run rc ~k name ~max_probes =
  let rec probe j =
    if j > max_probes then None
    else
      match Core.Random_cache.on_request rc name with
      | Core.Random_cache.Hit -> Some { probes_used = j; recovered_count = k + 2 - j }
      | Core.Random_cache.Miss -> probe (j + 1)
  in
  probe 1

(* [prior_requests] honest requests for one name, then the probes. *)
let attack ~kdist ~seed ~k ~prior_requests ~max_probes =
  let rc = Core.Random_cache.create ~kdist ~rng:(Sim.Rng.create seed) () in
  let name = Ndn.Name.of_string "/victim/secret/document" in
  for _ = 1 to prior_requests do
    ignore (Core.Random_cache.on_request rc name)
  done;
  run rc ~k name ~max_probes

(* [Constant k] draws nothing, so the seed is immaterial. *)
let demonstrate ~k ~prior_requests =
  attack ~kdist:(Core.Kdist.Constant k) ~seed:0 ~k ~prior_requests
    ~max_probes:(k + 3)

let random_cache_resists ~kdist ~prior_requests ~seed =
  (* The adversary wrongly assumes threshold = E[K]. *)
  let k = int_of_float (Core.Kdist.mean kdist) in
  attack ~kdist ~seed ~k ~prior_requests ~max_probes:((k * 4) + 8)
