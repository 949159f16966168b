(* LEB128 variable-length integers for the binary trace wire format.

   Unsigned varints are the standard little-endian base-128 coding:
   seven payload bits per byte, high bit set on every byte except the
   last.  Signed values go through the zigzag map first so that small
   negative deltas (backwards time steps between merged trial streams)
   stay short on the wire.

   OCaml ints are 63-bit on 64-bit platforms, so a varint is at most
   9 bytes; a tenth continuation byte is rejected instead of silently
   wrapping.  The encoders are on the trace emit hot path and must not
   allocate: no closures, no refs, no boxing. *)

exception Truncated of int
exception Overflow of int

let max_bytes = 9

(* Raw encoder over the full 63-bit pattern: [lsr] terminates even for
   negative inputs, which zigzag produces for very negative values. *)
(* ndnlint: hot *)
let rec add_raw b n =
  if n >= 0 && n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    add_raw b (n lsr 7)
  end

(* ndnlint: hot *)
let add_uint b n =
  if n < 0 then invalid_arg "Varint.add_uint: negative";
  add_raw b n

(* ndnlint: hot *)
let zigzag n = (n lsl 1) lxor (n asr 62)

(* ndnlint: hot *)
let unzigzag n = (n lsr 1) lxor (- (n land 1))

(* ndnlint: hot *)
let add_int b n = add_raw b (zigzag n)

(* ndnlint: hot *)
let rec raw_size n = if n >= 0 && n < 0x80 then 1 else 1 + raw_size (n lsr 7)

(* ndnlint: hot *)
let uint_size n =
  if n < 0 then invalid_arg "Varint.uint_size: negative";
  raw_size n

(* ndnlint: hot *)
let int_size n = raw_size (zigzag n)

let rec read_loop s len pos shift acc start =
  if pos >= len then raise (Truncated start)
  else if pos - start >= max_bytes then raise (Overflow start)
  else begin
    let byte = Char.code (String.unsafe_get s pos) in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then (acc, pos + 1)
    else read_loop s len (pos + 1) (shift + 7) acc start
  end

let read_uint s pos =
  if pos < 0 || pos >= String.length s then raise (Truncated pos);
  read_loop s (String.length s) pos 0 0 pos
