(* Reaches [Exports] only through a local module alias, an [open] and
   a binding operator: U1 must resolve all three and flag none. *)
module E = Exports

let doubled = E.used_via_alias 21

let decremented =
  let open Exports in
  used_after_open 43

let halved =
  let open Exports in
  let* n = Some 84 in
  Some (n / 2)
