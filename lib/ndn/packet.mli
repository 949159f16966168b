(** NDN packet types.

    "Interest and content are the only types of packets in NDN"
    (paper, Section II) — plus the {!Nack.t} deployed forwarders added
    for explicit failure signalling, which this plane only generates
    when NACKs are switched on (see {!Nack}). *)

type t =
  | Interest of Interest.t
  | Data of Data.t
  | Nack of Nack.t

val name : t -> Name.t

val size_bytes : t -> int
(** Wire-size estimate for bandwidth accounting (interests and NACKs
    are small and fixed-cost; Data defers to {!Data.size_bytes}). *)
