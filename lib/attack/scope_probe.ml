type verdict = Cached | Not_cached

let probe (setup : Ndn.Network.probe_setup) name =
  match
    Ndn.Network.fetch_rtt setup.Ndn.Network.net
      ~from:setup.Ndn.Network.adversary ~scope:2 ~timeout_ms:500. name
  with
  | Some _ -> Cached
  | None -> Not_cached

let census setup names = List.map (fun n -> (n, probe setup n)) names
