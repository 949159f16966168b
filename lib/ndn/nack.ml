type reason = Congested | No_route | Pit_full | Duplicate

type t = { name : Name.t; nonce : int64; reason : reason }

let create ~nonce ~reason name = { name; nonce; reason }

(* One registered trace kind per reason — ndnlint rule T3 checks this
   mapping stays total against lib/sim/trace_kinds.txt. *)
let trace_kind = function
  | Congested -> Sim.Trace.Nack_congested
  | No_route -> Sim.Trace.Nack_no_route
  | Pit_full -> Sim.Trace.Nack_pit_full
  | Duplicate -> Sim.Trace.Nack_duplicate

let equal a b =
  Name.equal a.name b.name && Int64.equal a.nonce b.nonce && a.reason = b.reason

let import t = { t with name = Name.import t.name }
