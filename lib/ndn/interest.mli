(** Interest packets.

    An interest requests content by name.  NDN interests carry no
    source address — delivery of the matching Data packet relies purely
    on PIT state along the reverse path (paper, Section II). *)

type t = private {
  name : Name.t;
  nonce : int64;  (** Duplicate-suppression tag, unique per expression. *)
  scope : int option;
      (** Maximum number of NDN entities the interest may traverse,
          source included; the probing attack of Section III sets
          [Some 2].  [None] means unlimited.  Routers are allowed to
          ignore this field. *)
  consumer_private : bool;
      (** Consumer-driven privacy bit (Section V): the consumer asks
          routers to treat the matched content as private. *)
}

val create : ?scope:int -> ?consumer_private:bool -> nonce:int64 -> Name.t -> t
(** @raise Invalid_argument if [scope < 1] (a scope of 1 would not even
    reach the local forwarder's peer). *)

val decrement_scope : t -> t option
(** Consume one hop of scope budget: [None] when the budget is
    exhausted and the interest must not be forwarded further;
    unlimited-scope interests pass through unchanged. *)

val import : t -> t
(** Re-intern the name in the current domain's hash-cons table
    ({!Name.import}) — applied to packets crossing shards in
    [Sim.Shard] mode so equality fast paths keep firing on the
    receiving domain.  Semantically the identity. *)

val equal : t -> t -> bool
