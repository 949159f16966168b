(* U1 fixture: an interface with one value no other unit references
   and three that [exports_user.ml] reaches without naming [Exports]
   directly. *)

val unreferenced : int -> int

val used_via_alias : int -> int

val used_after_open : int -> int

val ( let* ) : 'a option -> ('a -> 'b option) -> 'b option
