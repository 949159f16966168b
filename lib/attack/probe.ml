open Ndn

let measure (setup : Network.probe_setup) ~from name =
  Network.fetch_rtt setup.Network.net ~from name

let warm (setup : Network.probe_setup) name =
  ignore (measure setup ~from:setup.Network.user name)

let baseline_hit_rtt (setup : Network.probe_setup) name =
  let adv = setup.Network.adversary in
  ignore (measure setup ~from:adv name);
  measure setup ~from:adv name

type decision = Was_cached | Not_cached

let two_probe_decision (setup : Network.probe_setup) ~target ~reference () =
  let d1 = measure setup ~from:setup.Network.adversary target in
  let d2 = baseline_hit_rtt setup reference in
  match (d1, d2) with
  | Some d1, Some d2 ->
    Some (if d1 <= d2 +. (0.25 *. d2) then Was_cached else Not_cached)
  | _ -> None
