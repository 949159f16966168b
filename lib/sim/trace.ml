type kind =
  | Engine_step
  | Cs_hit
  | Cs_miss
  | Cs_insert
  | Cs_evict
  | Cs_expire
  | Interest_received
  | Interest_forwarded
  | Interest_collapsed
  | Data_received
  | Data_sent
  | Pit_timeout
  | Link_transmit
  | Link_drop
  | Rc_draw
  | Rc_fake_miss
  | Rc_hit
  | Cs_flush
  | Fault_link
  | Fault_crash
  | Fault_restart
  | Fault_producer
  | Pit_drop
  | Queue_drop
  | Nack_congested
  | Nack_no_route
  | Nack_pit_full
  | Nack_duplicate
  | Consumer_give_up

type event = {
  time : float;
  node : string;
  kind : kind;
  name : string;
  attrs : (string * string) list;
}

let kind_to_string = function
  | Engine_step -> "engine.step"
  | Cs_hit -> "cs.hit"
  | Cs_miss -> "cs.miss"
  | Cs_insert -> "cs.insert"
  | Cs_evict -> "cs.evict"
  | Cs_expire -> "cs.expire"
  | Interest_received -> "interest.recv"
  | Interest_forwarded -> "interest.fwd"
  | Interest_collapsed -> "interest.collapsed"
  | Data_received -> "data.recv"
  | Data_sent -> "data.sent"
  | Pit_timeout -> "pit.timeout"
  | Link_transmit -> "link.tx"
  | Link_drop -> "link.drop"
  | Rc_draw -> "rc.draw"
  | Rc_fake_miss -> "rc.fake_miss"
  | Rc_hit -> "rc.hit"
  | Cs_flush -> "cs.flush"
  | Fault_link -> "fault.link"
  | Fault_crash -> "fault.crash"
  | Fault_restart -> "fault.restart"
  | Fault_producer -> "fault.producer"
  | Pit_drop -> "pit.drop"
  | Queue_drop -> "queue.drop"
  | Nack_congested -> "nack.congested"
  | Nack_no_route -> "nack.no_route"
  | Nack_pit_full -> "nack.pit_full"
  | Nack_duplicate -> "nack.duplicate"
  | Consumer_give_up -> "consumer.give_up"

let all_kinds =
  [
    Engine_step; Cs_hit; Cs_miss; Cs_insert; Cs_evict; Cs_expire;
    Interest_received; Interest_forwarded; Interest_collapsed; Data_received;
    Data_sent; Pit_timeout; Link_transmit; Link_drop; Rc_draw; Rc_fake_miss;
    Rc_hit; Cs_flush; Fault_link; Fault_crash; Fault_restart; Fault_producer;
    Pit_drop; Queue_drop; Nack_congested; Nack_no_route; Nack_pit_full;
    Nack_duplicate; Consumer_give_up;
  ]

let all_kind_names = List.map kind_to_string all_kinds

(* Stable binary kind ids: the position of each kind's wire name in the
   checked-in registry [lib/sim/trace_kinds.txt].  ndnlint rule T4
   fails the build if a registered kind is missing here or if an id
   disagrees with the registry order, so the binary format and the
   registry cannot drift apart silently. *)
(* ndnlint: hot *)
let kind_id = function
  | Engine_step -> 0
  | Cs_hit -> 1
  | Cs_miss -> 2
  | Cs_insert -> 3
  | Cs_evict -> 4
  | Cs_expire -> 5
  | Interest_received -> 6
  | Interest_forwarded -> 7
  | Interest_collapsed -> 8
  | Data_received -> 9
  | Data_sent -> 10
  | Pit_timeout -> 11
  | Link_transmit -> 12
  | Link_drop -> 13
  | Rc_draw -> 14
  | Rc_fake_miss -> 15
  | Rc_hit -> 16
  | Cs_flush -> 17
  | Fault_link -> 18
  | Fault_crash -> 19
  | Fault_restart -> 20
  | Fault_producer -> 21
  | Pit_drop -> 22
  | Queue_drop -> 23
  | Nack_congested -> 24
  | Nack_no_route -> 25
  | Nack_pit_full -> 26
  | Nack_duplicate -> 27
  | Consumer_give_up -> 28

let kind_of_string s = List.find_opt (fun k -> kind_to_string k = s) all_kinds

(* --- tracers --- *)

(* A tracer is inert, buffers its events in emission order, or streams
   each one to a single sink. *)
type t =
  | Off
  | Buffered of { mutable buf : event array; mutable len : int }
  | Sink of (event -> unit)

let disabled = Off

let create () = Buffered { buf = [||]; len = 0 }

let with_sink sink = Sink sink

let enabled = function Off -> false | Buffered _ | Sink _ -> true

let emit t e =
  match t with
  | Off -> ()
  | Sink sink -> sink e
  | Buffered b ->
    if b.len = Array.length b.buf then begin
      let nb = Array.make (max 64 (2 * b.len)) e in
      Array.blit b.buf 0 nb 0 b.len;
      b.buf <- nb
    end;
    b.buf.(b.len) <- e;
    b.len <- b.len + 1

let length = function Buffered b -> b.len | Off | Sink _ -> 0

let events = function
  | Buffered b -> Array.sub b.buf 0 b.len
  | Off | Sink _ -> [||]

let iter t f =
  match t with
  | Buffered b ->
    for i = 0 to b.len - 1 do
      f b.buf.(i)
    done
  | Off | Sink _ -> ()

let merge_into ~into t =
  if not (enabled into) then
    invalid_arg "Trace.merge_into: target tracer is disabled";
  iter t (emit into)

(* --- exporters --- *)

type format = Jsonl | Binary

let format_of_string s =
  match String.lowercase_ascii s with
  | "jsonl" | "json" -> Some Jsonl
  | "binary" | "bin" -> Some Binary
  | _ -> None

let format_to_string = function Jsonl -> "jsonl" | Binary -> "binary"

let add_jsonl b e =
  Printf.bprintf b "{\"time\":%.6f,\"node\":\"" e.time;
  Scan.Json.escape_into b e.node;
  Buffer.add_string b "\",\"kind\":\"";
  Buffer.add_string b (kind_to_string e.kind);
  Buffer.add_string b "\",\"name\":\"";
  Scan.Json.escape_into b e.name;
  Buffer.add_string b "\",\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Scan.Json.escape_into b k;
      Buffer.add_string b "\":\"";
      Scan.Json.escape_into b v;
      Buffer.add_char b '"')
    e.attrs;
  Buffer.add_string b "}}"

(* --- binary wire format (DESIGN §16) ---

   Stream layout: an 8-byte magic, a varint format version, a snapshot
   of the trace-kind registry (count, then each wire name
   length-prefixed; the snapshot index {e is} the kind id), then
   length-prefixed records.  Each record is a varint payload length
   followed by that many payload bytes, so a reader can validate
   framing and detect truncation without understanding every tag.

   Record payloads start with a tag byte:
   - [0x01] string definition: varint id (must equal the current table
     size), varint byte length, raw bytes.  Node labels, content names
     and attr {e keys} are interned this way — each distinct string
     crosses the wire once.
   - [0x02] event: varint kind id, zigzag-varint delta of the
     microsecond-quantized timestamp against the previous event, varint
     node string ref, varint name string ref, varint attr count, then
     per attr a varint key ref + varint value length + raw value bytes
     (values are not interned: latency draws and counters rarely
     repeat).

   Timestamps are rounded to integer microseconds — exactly the
   precision of the [%.6f] JSONL rendering — so the binary and text
   pipelines describe the same trace bit-for-bit.  Deltas may be
   negative (merged per-trial streams restart virtual time); zigzag
   keeps them short. *)

let binary_magic = "ndntrace"

let binary_version = 1

type encoder = {
  ebuf : Buffer.t;
  strings : (string, int) Hashtbl.t;
  mutable next_ref : int;
  mutable prev_us : int;
}

let encoder_create () =
  {
    ebuf = Buffer.create 65536;
    strings = Hashtbl.create 256;
    next_ref = 0;
    prev_us = 0;
  }

let encoder_reset enc =
  Buffer.clear enc.ebuf;
  Hashtbl.reset enc.strings;
  enc.next_ref <- 0;
  enc.prev_us <- 0

let encoder_add_header enc =
  Buffer.add_string enc.ebuf binary_magic;
  Varint.add_uint enc.ebuf binary_version;
  Varint.add_uint enc.ebuf (List.length all_kind_names);
  List.iter
    (fun n ->
      Varint.add_uint enc.ebuf (String.length n);
      Buffer.add_string enc.ebuf n)
    all_kind_names

(* Intern a string, emitting its definition record on first sight.
   Steady state is the [Hashtbl.find] hit — no option boxing. *)
(* ndnlint: hot *)
let intern enc s =
  try Hashtbl.find enc.strings s
  with Not_found ->
    let id = enc.next_ref in
    enc.next_ref <- id + 1;
    Hashtbl.add enc.strings s id;
    let slen = String.length s in
    let payload = 1 + Varint.uint_size id + Varint.uint_size slen + slen in
    Varint.add_uint enc.ebuf payload;
    Buffer.add_char enc.ebuf '\x01';
    Varint.add_uint enc.ebuf id;
    Varint.add_uint enc.ebuf slen;
    Buffer.add_string enc.ebuf s;
    id

(* Measure the attrs' payload bytes, interning keys as a side effect so
   their definition records precede the event record. *)
(* ndnlint: hot *)
let rec attrs_size enc acc l =
  match l with
  | [] -> acc
  | (k, v) :: rest ->
    let kr = intern enc k in
    let vlen = String.length v in
    attrs_size enc (acc + Varint.uint_size kr + Varint.uint_size vlen + vlen) rest

(* ndnlint: hot *)
let rec add_attrs enc l =
  match l with
  | [] -> ()
  | (k, v) :: rest ->
    Varint.add_uint enc.ebuf (Hashtbl.find enc.strings k);
    Varint.add_uint enc.ebuf (String.length v);
    Buffer.add_string enc.ebuf v;
    add_attrs enc rest

(* ndnlint: hot *)
let time_to_us t = int_of_float (Float.round (t *. 1e6))

(* ndnlint: hot *)
let encode_event enc e =
  let node_ref = intern enc e.node in
  let name_ref = intern enc e.name in
  let us = time_to_us e.time in
  let dt = us - enc.prev_us in
  let nattrs = List.length e.attrs in
  let kid = kind_id e.kind in
  let attr_bytes = attrs_size enc 0 e.attrs in
  let payload =
    1 + Varint.uint_size kid + Varint.int_size dt
    + Varint.uint_size node_ref + Varint.uint_size name_ref
    + Varint.uint_size nattrs + attr_bytes
  in
  Varint.add_uint enc.ebuf payload;
  Buffer.add_char enc.ebuf '\x02';
  Varint.add_uint enc.ebuf kid;
  Varint.add_int enc.ebuf dt;
  Varint.add_uint enc.ebuf node_ref;
  Varint.add_uint enc.ebuf name_ref;
  Varint.add_uint enc.ebuf nattrs;
  add_attrs enc e.attrs;
  enc.prev_us <- us

(* The one export loop: each format appends its events to the
   encoder's buffer, and [chunk] sees the buffer after every event. *)
let encode fmt t ~chunk =
  let enc = encoder_create () in
  let b = enc.ebuf in
  let add =
    match fmt with
    | Jsonl ->
      fun e ->
        add_jsonl b e;
        Buffer.add_char b '\n'
    | Binary ->
      encoder_add_header enc;
      encode_event enc
  in
  iter t (fun e ->
      add e;
      chunk b);
  b

let render fmt t = Buffer.contents (encode fmt t ~chunk:ignore)

(* Flush at 64 KiB so a heavy-traffic export never holds the whole
   byte stream in memory. *)
let flush_threshold = 65536

let write fmt oc t =
  let flush b =
    Buffer.output_buffer oc b;
    Buffer.clear b
  in
  flush
    (encode fmt t ~chunk:(fun b ->
         if Buffer.length b >= flush_threshold then flush b))
