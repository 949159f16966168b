(** LEB128 variable-length integer coding for the binary trace format.

    Unsigned values use the little-endian base-128 coding (seven
    payload bits per byte, continuation bit 0x80); signed values are
    zigzag-mapped first so small negative numbers stay short.  OCaml
    ints are 63-bit, so a valid encoding is at most 9 bytes.

    The [add_*] encoders are on the trace emit hot path and perform no
    allocation beyond the buffer they append to. *)

exception Truncated of int
(** [Truncated pos]: the input ended inside the varint that starts at
    byte offset [pos]. *)

exception Overflow of int
(** [Overflow pos]: the varint starting at byte offset [pos] encodes a
    value wider than OCaml's 63-bit native int. *)

val max_bytes : int
(** Longest legal encoding (9 bytes for 63-bit ints). *)

val add_uint : Buffer.t -> int -> unit
(** Append the unsigned LEB128 coding of [n].
    @raise Invalid_argument if [n < 0]. *)

val add_int : Buffer.t -> int -> unit
(** Append the zigzag-then-LEB128 coding of a signed [n]. *)

val uint_size : int -> int
(** Encoded byte length of a non-negative value, without writing it. *)

val int_size : int -> int
(** Encoded byte length of a signed value, without writing it. *)

val unzigzag : int -> int
(** Inverse of the sign-folding bijection that maps 0, -1, 1, -2, ...
    to 0, 1, 2, 3, ... *)

val read_uint : string -> int -> int * int
(** [read_uint s pos] decodes the varint at byte [pos] of [s],
    returning [(value, next_pos)].  The value is the raw 63-bit
    pattern; decode encodings produced by {!add_int} with
    {!unzigzag} on the value.
    @raise Truncated if [s] ends mid-varint (payload cut short).
    @raise Overflow on an encoding wider than 9 bytes. *)
