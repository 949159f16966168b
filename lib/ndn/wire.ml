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

type error = { offset : int; reason : string }

let pp_error ppf e = Format.fprintf ppf "wire error at byte %d: %s" e.offset e.reason

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

exception Fail of error

let fail offset reason = raise (Fail { offset; reason })

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

(* Fold over the TLVs of a region. *)
let fold_tlvs s ~off ~len ~init ~f =
  let stop = off + len in
  let rec go pos acc =
    if pos = stop then acc
    else if pos > stop then fail pos "TLV overruns its container"
    else begin
      let typ, voff, vlen = read_header s pos in
      go (voff + vlen) (f acc ~typ ~voff ~vlen)
    end
  in
  go off init

let decode_name s ~off ~len =
  let comps =
    fold_tlvs s ~off ~len ~init:[] ~f:(fun acc ~typ ~voff ~vlen ->
        if typ <> t_component then fail voff "expected name component";
        String.sub s voff vlen :: acc)
  in
  try Name.of_components (List.rev comps)
  with Invalid_argument m -> fail off ("invalid name: " ^ m)

let decode_be64 s ~off ~len =
  if len <> 8 then fail off "expected 8-byte integer";
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

type interest_acc = {
  mutable i_name : Name.t option;
  mutable i_nonce : int64 option;
  mutable i_scope : int option;
  mutable i_private : bool;
}

let decode_interest_body s ~off ~len =
  let acc = { i_name = None; i_nonce = None; i_scope = None; i_private = false } in
  ignore
    (fold_tlvs s ~off ~len ~init:() ~f:(fun () ~typ ~voff ~vlen ->
         if typ = t_name then acc.i_name <- Some (decode_name s ~off:voff ~len:vlen)
         else if typ = t_nonce then acc.i_nonce <- Some (decode_be64 s ~off:voff ~len:vlen)
         else if typ = t_scope then begin
           if vlen <> 1 then fail voff "scope must be one byte";
           acc.i_scope <- Some (Char.code s.[voff])
         end
         else if typ = t_flags then begin
           if vlen <> 1 then fail voff "flags must be one byte";
           acc.i_private <- Char.code s.[voff] land 1 <> 0
         end
         else fail voff (Printf.sprintf "unknown interest field 0x%02x" typ)));
  match (acc.i_name, acc.i_nonce) with
  | Some name, Some nonce -> (
    try
      Interest.create ?scope:acc.i_scope ~consumer_private:acc.i_private ~nonce name
    with Invalid_argument m -> fail off m)
  | None, _ -> fail off "interest missing name"
  | _, None -> fail off "interest missing nonce"

type data_acc = {
  mutable d_name : Name.t option;
  mutable d_producer : string option;
  mutable d_payload : string option;
  mutable d_signature : string option;
  mutable d_flags : int;
  mutable d_content_id : string option;
  mutable d_freshness : float option;
}

let decode_data_body s ~off ~len =
  let acc =
    {
      d_name = None;
      d_producer = None;
      d_payload = None;
      d_signature = None;
      d_flags = 0;
      d_content_id = None;
      d_freshness = None;
    }
  in
  ignore
    (fold_tlvs s ~off ~len ~init:() ~f:(fun () ~typ ~voff ~vlen ->
         let value () = String.sub s voff vlen in
         if typ = t_name then acc.d_name <- Some (decode_name s ~off:voff ~len:vlen)
         else if typ = t_producer then acc.d_producer <- Some (value ())
         else if typ = t_payload then acc.d_payload <- Some (value ())
         else if typ = t_signature then acc.d_signature <- Some (value ())
         else if typ = t_flags then begin
           if vlen <> 1 then fail voff "flags must be one byte";
           acc.d_flags <- Char.code s.[voff]
         end
         else if typ = t_content_id then acc.d_content_id <- Some (value ())
         else if typ = t_freshness then
           acc.d_freshness <-
             Some (Int64.float_of_bits (decode_be64 s ~off:voff ~len:vlen))
         else fail voff (Printf.sprintf "unknown data field 0x%02x" typ)));
  match (acc.d_name, acc.d_producer, acc.d_payload, acc.d_signature) with
  | Some name, Some producer, Some payload, Some signature ->
    (* Rebuild the record carrying the original signature: [Data.create]
       would re-sign (and we have no key), so construct through the
       same signing path with a scratch key and then splice the carried
       signature via the record-of-truth below. *)
    let producer_private = acc.d_flags land 1 <> 0 in
    let strict_match = acc.d_flags land 2 <> 0 in
    ( name,
      payload,
      producer,
      signature,
      producer_private,
      strict_match,
      acc.d_content_id,
      acc.d_freshness )
  | None, _, _, _ -> fail off "data missing name"
  | _, None, _, _ -> fail off "data missing producer"
  | _, _, None, _ -> fail off "data missing payload"
  | _, _, _, None -> fail off "data missing signature"

(* Data.t is private; rebuilding with the carried signature goes
   through [Data.of_wire]. *)

type nack_acc = {
  mutable n_name : Name.t option;
  mutable n_nonce : int64 option;
  mutable n_reason : Nack.reason option;
}

let decode_nack_body s ~off ~len =
  let acc = { n_name = None; n_nonce = None; n_reason = None } in
  ignore
    (fold_tlvs s ~off ~len ~init:() ~f:(fun () ~typ ~voff ~vlen ->
         if typ = t_name then acc.n_name <- Some (decode_name s ~off:voff ~len:vlen)
         else if typ = t_nonce then acc.n_nonce <- Some (decode_be64 s ~off:voff ~len:vlen)
         else if typ = t_reason then begin
           if vlen <> 1 then fail voff "reason must be one byte";
           acc.n_reason <-
             (match Char.code s.[voff] with
             | 0 -> Some Nack.Congested
             | 1 -> Some Nack.No_route
             | 2 -> Some Nack.Pit_full
             | 3 -> Some Nack.Duplicate
             | b -> fail voff (Printf.sprintf "unknown nack reason %d" b))
         end
         else fail voff (Printf.sprintf "unknown nack field 0x%02x" typ)));
  match (acc.n_name, acc.n_nonce, acc.n_reason) with
  | Some name, Some nonce, Some reason -> Nack.create ~nonce ~reason name
  | None, _, _ -> fail off "nack missing name"
  | _, None, _ -> fail off "nack missing nonce"
  | _, _, None -> fail off "nack missing reason"

let decode_interest s =
  try
    let typ, voff, vlen = read_header s 0 in
    if typ <> t_interest then fail 0 "not an interest packet";
    if voff + vlen <> String.length s then fail (voff + vlen) "trailing bytes";
    Ok (decode_interest_body s ~off:voff ~len:vlen)
  with Fail e -> Error e

let decode_data s =
  try
    let typ, voff, vlen = read_header s 0 in
    if typ <> t_data then fail 0 "not a data packet";
    if voff + vlen <> String.length s then fail (voff + vlen) "trailing bytes";
    let ( name,
          payload,
          producer,
          signature,
          producer_private,
          strict_match,
          content_id,
          freshness_ms ) =
      decode_data_body s ~off:voff ~len:vlen
    in
    Ok
      (Data.of_wire ~name ~payload ~producer ~signature ~producer_private
         ~strict_match ~content_id ~freshness_ms)
  with Fail e -> Error e

let decode_nack s =
  try
    let typ, voff, vlen = read_header s 0 in
    if typ <> t_nack then fail 0 "not a nack packet";
    if voff + vlen <> String.length s then fail (voff + vlen) "trailing bytes";
    Ok (decode_nack_body s ~off:voff ~len:vlen)
  with Fail e -> Error e

let decode_packet s =
  try
    let typ, _, _ = read_header s 0 in
    if typ = t_interest then
      Result.map (fun i -> Packet.Interest i) (decode_interest s)
    else if typ = t_data then Result.map (fun d -> Packet.Data d) (decode_data s)
    else if typ = t_nack then Result.map (fun n -> Packet.Nack n) (decode_nack s)
    else fail 0 (Printf.sprintf "unknown packet type 0x%02x" typ)
  with Fail e -> Error e
