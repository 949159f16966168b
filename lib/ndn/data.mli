(** Data (content-object) packets.

    Every content object is signed by its producer — which is exactly
    why k-anonymity in a shared cache is weak: the signature identifies
    the producer even when the payload is encrypted (paper, Section
    II). *)

type t = private {
  name : Name.t;
  payload : string;
  producer : string;  (** Signer identity (key locator). *)
  signature : string;  (** HMAC-SHA256 over the signed fields. *)
  producer_private : bool;
      (** Producer-driven privacy bit (Section V): routers must treat
          this content as private regardless of how it is requested. *)
  strict_match : bool;
      (** When [true], only an interest carrying the complete name may
          retrieve this object from a cache — the footnote-5 rule that
          protects unpredictable-name content from prefix probing. *)
  content_id : string option;
      (** Producer-assigned correlation-group id (the "content id
          field" countermeasure the paper sketches in Section VI):
          objects sharing an id are semantically correlated — e.g. the
          segments of one video — and privacy-aware routers key
          Algorithm 1 by the id instead of the name. *)
  freshness_ms : float option;
      (** Cache lifetime; [None] = never stale.  Interactive traffic
          uses short freshness because stale frames are useless. *)
}

val create :
  ?producer_private:bool ->
  ?strict_match:bool ->
  ?content_id:string ->
  ?freshness_ms:float ->
  producer:string ->
  key:string ->
  payload:string ->
  Name.t ->
  t
(** Build and sign a content object with the producer's HMAC key. *)

val verify : t -> key:string -> bool
(** Check the signature under the purported producer's key. *)

val of_wire :
  name:Name.t ->
  payload:string ->
  producer:string ->
  signature:string ->
  producer_private:bool ->
  strict_match:bool ->
  content_id:string option ->
  freshness_ms:float option ->
  t
(** Reconstruct a decoded object carrying its original (unverified)
    signature — the deserialization path of {!Wire}.  {!verify} remains
    the only way to establish authenticity. *)

val size_bytes : t -> int
(** Wire-size estimate (name + payload + fixed header), for bandwidth
    accounting. *)

val is_fresh : t -> age_ms:float -> bool
(** Freshness check given the time elapsed since the object entered the
    cache. *)

val import : t -> t
(** Re-intern the name in the current domain's hash-cons table
    ({!Name.import}) — applied to packets crossing shards in
    [Sim.Shard] mode.  Semantically the identity; the signature stays
    valid because no signed field changes. *)
