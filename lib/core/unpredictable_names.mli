(** The mutual countermeasure for interactive traffic (paper, Section
    V-A): unpredictable names.

    The two (or more) parties of an interactive session share a secret
    and derive the last component of every content name from it with a
    PRF (HMAC-SHA256 here).  An adversary who cannot eavesdrop cannot
    construct the names, so it cannot probe router caches for them —
    while retransmitted interests from legitimate parties still enjoy
    in-network caching near the loss point.  Content carries
    {!Ndn.Data.t.strict_match} so prefix probing (footnote 5) fails
    too. *)

type session

val create : secret:string -> prefix:Ndn.Name.t -> session
(** A session between parties sharing [secret], exchanging content
    under [prefix] (e.g. ["/alice/skype/0"]). *)

val name_of_seq : session -> seq:int -> Ndn.Name.t
(** The full content name of sequence number [seq]:
    [prefix / seq / rand] where
    [rand = HMAC(secret, prefix || seq)] (hex, truncated).  Both
    parties compute identical names; outsiders cannot.
    @raise Invalid_argument if [seq < 0]. *)

val verify_name : session -> Ndn.Name.t -> int option
(** If the name is a well-formed session name, return its sequence
    number; [None] otherwise (wrong prefix, malformed, or forged rand
    component).  Producers use this to answer only authentic
    interests. *)

val guess_space_bits : int
(** Entropy of the rand component in bits (how many names an adversary
    would need to enumerate per sequence number). *)

val make_data :
  session ->
  producer:string ->
  key:string ->
  ?freshness_ms:float ->
  payload:string ->
  seq:int ->
  unit ->
  Ndn.Data.t
(** Produce the content object for a sequence number: named by
    {!name_of_seq}, [strict_match] set, short freshness by default
    (interactive content is useless stale). *)
