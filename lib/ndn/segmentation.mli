(** Content segmentation.

    "Large pieces of content must be split into fragments" (Section
    II): a content object carries one segment, named
    [base/<segment-number>].  Segmentation is what powers the paper's
    amplification attack — the adversary probes any one of n segments —
    and what the grouping countermeasure must protect as a unit.

    Wire format: each segment's payload is prefixed with a one-line
    header [total-segments '\n'] so a consumer can pipeline the rest
    after fetching any one segment. *)

val segment_name : base:Name.t -> int -> Name.t
(** [base/<i>].
    @raise Invalid_argument if [i < 0]. *)

val split : payload:string -> segment_size:int -> string list
(** Cut a payload into chunks of at most [segment_size] bytes (the
    final chunk may be shorter; an empty payload yields one empty
    chunk).
    @raise Invalid_argument if [segment_size <= 0]. *)

val segment_count : payload:string -> segment_size:int -> int

val producer_handler :
  base:Name.t ->
  producer:string ->
  key:string ->
  ?producer_private:bool ->
  ?content_id:string ->
  payload:string ->
  segment_size:int ->
  unit ->
  Interest.t ->
  Data.t option
(** A {!Node.add_producer}-compatible handler serving the segments of
    one content under [base].  All segments share [content_id] (when
    given) so privacy-aware routers can group them. *)

val parse_segment : Data.t -> (int * string) option
(** Decode a segment object into [(total_segments, chunk)]; [None] if
    the payload is not in segment format. *)

val fetch_all :
  Node.t ->
  base:Name.t ->
  ?timeout_ms:float ->
  on_complete:(string option -> unit) ->
  unit ->
  unit
(** Consumer-side reassembly: fetch segment 0, learn the total, issue
    up to 4 concurrent interests for the rest, and
    deliver the reassembled payload ([None] if any segment times out).
    Drive the engine to completion to observe the callback. *)
