(** Forwarding Information Base: name prefixes → outgoing faces.

    Interests are routed by longest-prefix match against announced
    prefixes (paper, Section II). *)

type t

val create : unit -> t

val add_route : t -> prefix:Name.t -> face:int -> unit
(** Announce a prefix via a face.  Multiple faces may be registered for
    the same prefix; their order of registration is the preference
    order. *)

val remove_route : t -> prefix:Name.t -> face:int -> unit
(** Withdraw one announcement.  No-op if absent. *)

val next_hops : t -> Name.t -> int list
(** Faces of the longest announced prefix of the name, preference
    order; [[]] when no route exists. *)

val next_hop : t -> Name.t -> int option
(** First (preferred) element of {!next_hops}. *)

val size : t -> int
(** Number of announced prefixes. *)
