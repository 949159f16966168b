(** Grouping of correlated content (paper, Section VI, "Addressing
    Content Correlation").

    Random-Cache is only private if probed contents are statistically
    independent; contents sharing a namespace (segments of one video,
    pages of one site) are not.  The fix is to run Algorithm 1 on
    *group* keys — one counter and one threshold per group — so that
    probing many related names samples a single threshold instead of
    many. *)

type t =
  | By_content
      (** No grouping: every full name is its own group (the insecure
          default against correlated content). *)
  | By_namespace of int
      (** Group by the first [n] name components, e.g.
          [By_namespace 2] maps [/youtube/alice/video-749.avi/137] to
          [/youtube/alice]. *)
  | By_content_id
      (** Group by a producer-assigned content id carried in a
          registry populated from observed Data packets; names without
          a registered id fall back to their full name. *)

val key : t -> registry:Ndn.Name.t Ndn.Name.Tbl.t -> Ndn.Name.t -> Ndn.Name.t
(** The Algorithm-1 key for a requested name.  [registry] maps names
    to producer content-id groups and is only consulted for
    {!By_content_id}. *)

val register_id : registry:Ndn.Name.t Ndn.Name.Tbl.t -> name:Ndn.Name.t -> id:string -> unit
(** Record that [name] belongs to the producer-declared group [id]
    (the "content id field" extension the paper sketches). *)
