(* TLV layout:
     INTEREST       0x05 [ NAME NONCE SCOPE? FLAGS? ]
     DATA           0x06 [ NAME PRODUCER PAYLOAD SIGNATURE FLAGS?
                           CONTENT_ID? FRESHNESS? ]
     NACK           0x03 [ NAME NONCE REASON ]
     NAME           0x07 [ COMPONENT* ]
     COMPONENT      0x08 bytes
     NONCE          0x0A 8 bytes big-endian
     SCOPE          0x0C 1 byte
     FLAGS          0x0D 1 byte bitmask (bit0 consumer_private /
                                         bit0 producer_private, bit1 strict)
     PRODUCER       0x16 bytes
     PAYLOAD        0x15 bytes
     SIGNATURE      0x17 bytes
     REASON         0x0E 1 byte (0 congested, 1 no_route, 2 pit_full,
                                 3 duplicate)
     CONTENT_ID     0x12 bytes
     FRESHNESS      0x13 8 bytes (float bits, big-endian)

   Signed Data fields are re-verified by the caller via [Data.verify];
   the codec reconstructs the record including the carried signature
   (re-signing would need the producer key, which the wire does not
   carry). *)

let t_interest = 0x05
let t_data = 0x06
let t_nack = 0x03
let t_name = 0x07
let t_component = 0x08
let t_nonce = 0x0A
let t_scope = 0x0C
let t_flags = 0x0D
let t_reason = 0x0E
let t_content_id = 0x12
let t_freshness = 0x13
let t_payload = 0x15
let t_producer = 0x16
let t_signature = 0x17

(* --- encoding --- *)

let add_tlv buf typ value =
  Buffer.add_char buf (Char.chr typ);
  let n = String.length value in
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF));
  Buffer.add_string buf value

let encode_name name =
  let buf = Buffer.create 64 in
  List.iter (fun c -> add_tlv buf t_component c) (Name.components name);
  Buffer.contents buf

let be64 v =
  String.init 8 (fun i -> Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xFF))

let encode_interest_body (i : Interest.t) =
  let buf = Buffer.create 64 in
  add_tlv buf t_name (encode_name i.Interest.name);
  add_tlv buf t_nonce (be64 i.Interest.nonce);
  (match i.Interest.scope with
  | Some s -> add_tlv buf t_scope (String.make 1 (Char.chr (s land 0xFF)))
  | None -> ());
  if i.Interest.consumer_private then add_tlv buf t_flags "\x01";
  Buffer.contents buf

let encode_interest i =
  let buf = Buffer.create 80 in
  add_tlv buf t_interest (encode_interest_body i);
  Buffer.contents buf

let encode_data_body (d : Data.t) =
  let buf = Buffer.create 256 in
  add_tlv buf t_name (encode_name d.Data.name);
  add_tlv buf t_producer d.Data.producer;
  add_tlv buf t_payload d.Data.payload;
  add_tlv buf t_signature d.Data.signature;
  let flags =
    (if d.Data.producer_private then 1 else 0)
    lor if d.Data.strict_match then 2 else 0
  in
  if flags <> 0 then add_tlv buf t_flags (String.make 1 (Char.chr flags));
  (match d.Data.content_id with
  | Some id -> add_tlv buf t_content_id id
  | None -> ());
  (match d.Data.freshness_ms with
  | Some f -> add_tlv buf t_freshness (be64 (Int64.bits_of_float f))
  | None -> ());
  Buffer.contents buf

let encode_data d =
  let buf = Buffer.create 300 in
  add_tlv buf t_data (encode_data_body d);
  Buffer.contents buf

let reason_byte = function
  | Nack.Congested -> 0
  | Nack.No_route -> 1
  | Nack.Pit_full -> 2
  | Nack.Duplicate -> 3

let encode_nack_body (n : Nack.t) =
  let buf = Buffer.create 64 in
  add_tlv buf t_name (encode_name n.Nack.name);
  add_tlv buf t_nonce (be64 n.Nack.nonce);
  add_tlv buf t_reason (String.make 1 (Char.chr (reason_byte n.Nack.reason)));
  Buffer.contents buf

let encode_nack n =
  let buf = Buffer.create 80 in
  add_tlv buf t_nack (encode_nack_body n);
  Buffer.contents buf

let encode_packet = function
  | Packet.Interest i -> encode_interest i
  | Packet.Data d -> encode_data d
  | Packet.Nack n -> encode_nack n

let encoded_size p = String.length (encode_packet p)

(* --- decoding --- *)

let fail offset reason = Sim.Scan.fail (Sim.Scan.Byte offset) reason

(* Read one TLV header at [pos]; returns (type, value_offset, value_len). *)
let read_header s pos =
  if pos + 5 > String.length s then fail pos "truncated TLV header";
  let typ = Char.code s.[pos] in
  let len =
    (Char.code s.[pos + 1] lsl 24)
    lor (Char.code s.[pos + 2] lsl 16)
    lor (Char.code s.[pos + 3] lsl 8)
    lor Char.code s.[pos + 4]
  in
  if pos + 5 + len > String.length s then fail pos "TLV length exceeds input";
  (typ, pos + 5, len)

(* [f] on each TLV of a region, in order. *)
let iter_tlvs s ~off ~len f =
  let stop = off + len in
  let rec go pos =
    if pos > stop then fail pos "TLV overruns its container"
    else if pos < stop then begin
      let typ, voff, vlen = read_header s pos in
      f ~typ ~voff ~vlen;
      go (voff + vlen)
    end
  in
  go off

let decode_name s ~off ~len =
  let comps = ref [] in
  iter_tlvs s ~off ~len (fun ~typ ~voff ~vlen ->
      if typ <> t_component then fail voff "expected name component";
      comps := String.sub s voff vlen :: !comps);
  try Name.of_components (List.rev !comps)
  with Invalid_argument m -> fail off ("invalid name: " ^ m)

let decode_be64 s ~off ~len =
  if len <> 8 then fail off "expected 8-byte integer";
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let decode_byte s ~voff ~vlen what =
  if vlen <> 1 then fail voff (what ^ " must be one byte");
  Char.code s.[voff]

(* A field every packet of the kind carries. *)
let required ~off packet field = function
  | Some v -> v
  | None -> fail off (Printf.sprintf "%s missing %s" packet field)

let decode_interest_body s ~off ~len =
  let name = ref None and nonce = ref None and scope = ref None in
  let consumer_private = ref false in
  iter_tlvs s ~off ~len (fun ~typ ~voff ~vlen ->
      if typ = t_name then name := Some (decode_name s ~off:voff ~len:vlen)
      else if typ = t_nonce then nonce := Some (decode_be64 s ~off:voff ~len:vlen)
      else if typ = t_scope then scope := Some (decode_byte s ~voff ~vlen "scope")
      else if typ = t_flags then
        consumer_private := decode_byte s ~voff ~vlen "flags" land 1 <> 0
      else fail voff (Printf.sprintf "unknown interest field 0x%02x" typ));
  let name = required ~off "interest" "name" !name in
  let nonce = required ~off "interest" "nonce" !nonce in
  try Interest.create ?scope:!scope ~consumer_private:!consumer_private ~nonce name
  with Invalid_argument m -> fail off m

let decode_data_body s ~off ~len =
  let name = ref None and producer = ref None and payload = ref None in
  let signature = ref None and flags = ref 0 and content_id = ref None in
  let freshness_ms = ref None in
  iter_tlvs s ~off ~len (fun ~typ ~voff ~vlen ->
      let value () = Some (String.sub s voff vlen) in
      if typ = t_name then name := Some (decode_name s ~off:voff ~len:vlen)
      else if typ = t_producer then producer := value ()
      else if typ = t_payload then payload := value ()
      else if typ = t_signature then signature := value ()
      else if typ = t_flags then flags := decode_byte s ~voff ~vlen "flags"
      else if typ = t_content_id then content_id := value ()
      else if typ = t_freshness then
        freshness_ms := Some (Int64.float_of_bits (decode_be64 s ~off:voff ~len:vlen))
      else fail voff (Printf.sprintf "unknown data field 0x%02x" typ));
  let name = required ~off "data" "name" !name in
  let producer = required ~off "data" "producer" !producer in
  let payload = required ~off "data" "payload" !payload in
  let signature = required ~off "data" "signature" !signature in
  (* [Data.t] is private and [Data.create] would re-sign (the wire
     carries no key): [Data.of_wire] keeps the carried signature. *)
  Data.of_wire ~name ~payload ~producer ~signature
    ~producer_private:(!flags land 1 <> 0)
    ~strict_match:(!flags land 2 <> 0)
    ~content_id:!content_id ~freshness_ms:!freshness_ms

let decode_nack_body s ~off ~len =
  let name = ref None and nonce = ref None and reason = ref None in
  iter_tlvs s ~off ~len (fun ~typ ~voff ~vlen ->
      if typ = t_name then name := Some (decode_name s ~off:voff ~len:vlen)
      else if typ = t_nonce then nonce := Some (decode_be64 s ~off:voff ~len:vlen)
      else if typ = t_reason then
        reason :=
          (match decode_byte s ~voff ~vlen "reason" with
          | 0 -> Some Nack.Congested
          | 1 -> Some Nack.No_route
          | 2 -> Some Nack.Pit_full
          | 3 -> Some Nack.Duplicate
          | b -> fail voff (Printf.sprintf "unknown nack reason %d" b))
      else fail voff (Printf.sprintf "unknown nack field 0x%02x" typ));
  let name = required ~off "nack" "name" !name in
  let nonce = required ~off "nack" "nonce" !nonce in
  let reason = required ~off "nack" "reason" !reason in
  Nack.create ~nonce ~reason name

(* The value of the single outer TLV of type [typ] that spans [s]. *)
let outer s typ ~not_this =
  let t, voff, vlen = read_header s 0 in
  if t <> typ then fail 0 not_this;
  if voff + vlen <> String.length s then fail (voff + vlen) "trailing bytes";
  (voff, vlen)

let interest_exn s =
  let off, len = outer s t_interest ~not_this:"not an interest packet" in
  decode_interest_body s ~off ~len

let data_exn s =
  let off, len = outer s t_data ~not_this:"not a data packet" in
  decode_data_body s ~off ~len

let decode_interest s = Sim.Scan.protect (fun () -> interest_exn s)

let decode_data s = Sim.Scan.protect (fun () -> data_exn s)

let decode_packet s =
  Sim.Scan.protect @@ fun () ->
  let typ, _, _ = read_header s 0 in
  if typ = t_interest then Packet.Interest (interest_exn s)
  else if typ = t_data then Packet.Data (data_exn s)
  else if typ = t_nack then begin
    let off, len = outer s t_nack ~not_this:"not a nack packet" in
    Packet.Nack (decode_nack_body s ~off ~len)
  end
  else fail 0 (Printf.sprintf "unknown packet type 0x%02x" typ)
