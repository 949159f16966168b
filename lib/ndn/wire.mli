(** TLV wire encoding of NDN packets.

    A compact type–length–value format in the spirit of the NDN packet
    spec (types are one byte, lengths are big-endian 32-bit).  Gives
    the simulator byte-accurate packet sizes for bandwidth accounting
    and lets traces be written/read as real bytes; the codec is total:
    every packet round-trips, and every byte string either decodes or
    yields a descriptive error positioned at a byte offset (a
    {!Sim.Scan.error}, DESIGN §17). *)

val encode_interest : Interest.t -> string

val encode_data : Data.t -> string

val encode_packet : Packet.t -> string

val decode_interest : string -> (Interest.t, Sim.Scan.error) result

val decode_data : string -> (Data.t, Sim.Scan.error) result

val decode_packet : string -> (Packet.t, Sim.Scan.error) result
(** Dispatches on the outer TLV type. *)

val encoded_size : Packet.t -> int
(** [String.length (encode_packet p)] without building the string
    twice. *)
