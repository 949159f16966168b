(* Reaches [Exports] only through a local module alias and an [open]:
   U1 must resolve both and flag neither value. *)
module E = Exports

let doubled = E.used_via_alias 21

let decremented =
  let open Exports in
  used_after_open 43
