(* Streaming decoders for trace files: the binary wire format of
   [Trace] (DESIGN §16) and the JSONL rendering, both folded event by
   event without materializing the trace.

   Every malformed input is reported as a positioned [Scan.error] —
   byte offsets for the binary format, line and column for JSONL —
   never a bare exception escaping to the caller (DESIGN §17). *)

(* --- chunked byte source --- *)

type source = {
  refill : bytes -> int -> int -> int;
      (* [refill buf off len] reads at most [len] bytes into [buf] at
         [off]; 0 means end of stream. *)
  mutable buf : Bytes.t;
  mutable lo : int;  (* first unconsumed byte *)
  mutable hi : int;  (* end of valid bytes *)
  mutable base : int;  (* stream offset of [buf.(0)] *)
  mutable eof : bool;
}

let of_string s =
  {
    refill = (fun _ _ _ -> 0);
    buf = Bytes.of_string s;
    lo = 0;
    hi = String.length s;
    base = 0;
    eof = true;
  }

let of_channel ic =
  {
    refill = input ic;
    buf = Bytes.create 65536;
    lo = 0;
    hi = 0;
    base = 0;
    eof = false;
  }

let offset src = src.base + src.lo

let available src = src.hi - src.lo

(* Try to make [n] bytes available; at end of stream fewer may remain.
   Compacts the window and grows the buffer as needed. *)
let ensure src n =
  if available src < n && not src.eof then begin
    if src.lo > 0 then begin
      let live = available src in
      Bytes.blit src.buf src.lo src.buf 0 live;
      src.base <- src.base + src.lo;
      src.lo <- 0;
      src.hi <- live
    end;
    if n > Bytes.length src.buf then begin
      let nb = Bytes.create (max n (2 * Bytes.length src.buf)) in
      Bytes.blit src.buf 0 nb 0 src.hi;
      src.buf <- nb
    end;
    let continue = ref true in
    while !continue && src.hi - src.lo < n do
      let got = src.refill src.buf src.hi (Bytes.length src.buf - src.hi) in
      if got = 0 then begin
        src.eof <- true;
        continue := false
      end
      else src.hi <- src.hi + got
    done
  end

let take src n =
  let s = Bytes.sub_string src.buf src.lo n in
  src.lo <- src.lo + n;
  s

(* Read one varint straight off the stream (used for the header fields
   and record length prefixes; record payloads are decoded from their
   extracted string). *)
let read_uint src ~what =
  ensure src Varint.max_bytes;
  let avail = available src in
  if avail = 0 then
    Scan.failf (Scan.Byte (offset src)) "stream ends where %s is expected" what;
  let window = Bytes.sub_string src.buf src.lo (min avail (Varint.max_bytes + 1)) in
  match Varint.read_uint window 0 with
  | v, consumed ->
    src.lo <- src.lo + consumed;
    v
  | exception Varint.Truncated _ ->
    Scan.failf (Scan.Byte (offset src)) "stream ends inside the varint encoding %s" what
  | exception Varint.Overflow _ ->
    Scan.failf (Scan.Byte (offset src))
      "varint encoding %s exceeds 9 bytes (corrupt stream?)" what

(* --- growable string table --- *)

type strtab = { mutable arr : string array; mutable n : int }

let strtab_create () = { arr = Array.make 64 ""; n = 0 }

let strtab_push t s =
  if t.n = Array.length t.arr then begin
    let nb = Array.make (2 * t.n) "" in
    Array.blit t.arr 0 nb 0 t.n;
    t.arr <- nb
  end;
  t.arr.(t.n) <- s;
  t.n <- t.n + 1

(* --- binary decoding --- *)

let max_record_bytes = 1 lsl 24

(* Decode helpers over an extracted record payload; [base] is the
   record's stream offset so errors stay absolute. *)
let payload_uint ~base payload pos ~what =
  match Varint.read_uint payload pos with
  | v, pos' -> (v, pos')
  | exception Varint.Truncated p ->
    Scan.failf (Scan.Byte (base + p))
      "record payload ends inside the varint encoding %s" what
  | exception Varint.Overflow p ->
    Scan.failf (Scan.Byte (base + p))
      "varint encoding %s exceeds 9 bytes (corrupt record?)" what

let payload_int ~base payload pos ~what =
  let v, pos' = payload_uint ~base payload pos ~what in
  (Varint.unzigzag v, pos')

let payload_bytes ~base payload pos len ~what =
  if pos + len > String.length payload then
    Scan.failf (Scan.Byte (base + pos))
      "record payload ends inside %s (%d bytes declared, %d remain)" what len
      (String.length payload - pos)
  else (String.sub payload pos len, pos + len)

let check_header src =
  ensure src 8;
  if available src = 0 then Scan.fail (Scan.Byte 0) "empty stream: not a binary trace";
  if available src < 8 then
    Scan.failf (Scan.Byte 0) "stream shorter than the 8-byte magic: not a binary trace";
  let magic = take src 8 in
  if magic <> Trace.binary_magic then
    Scan.failf (Scan.Byte 0)
      "bad magic %S (expected %S): not a binary ndn trace — JSONL traces go \
       through the jsonl reader"
      magic Trace.binary_magic;
  let version = read_uint src ~what:"the format version" in
  if version <> Trace.binary_version then
    Scan.failf (Scan.Byte (offset src))
      "unsupported binary trace version %d (this reader implements version %d)"
      version Trace.binary_version;
  let count = read_uint src ~what:"the registry snapshot size" in
  if count = 0 || count > 4096 then
    Scan.failf (Scan.Byte (offset src)) "implausible registry snapshot size %d" count;
  let kinds = Array.make count Trace.Engine_step in
  for i = 0 to count - 1 do
    let len = read_uint src ~what:"a registry name length" in
    if len > 256 then
      Scan.failf (Scan.Byte (offset src)) "implausible registry name length %d" len;
    ensure src len;
    if available src < len then
      Scan.failf (Scan.Byte (offset src)) "stream ends inside the registry snapshot";
    let name = take src len in
    match Trace.kind_of_string name with
    | Some k -> kinds.(i) <- k
    | None ->
      Scan.failf
        (Scan.Byte (offset src - len))
        "registry snapshot entry %d names unknown trace kind %S — the trace \
         was written by a newer build; regenerate it or upgrade this reader"
        i name
  done;
  kinds

type binary_state = {
  kinds : Trace.kind array;
  tab : strtab;
  mutable prev_us : int;
}

let resolve_ref ~base st r ~at ~what =
  if r < 0 || r >= st.tab.n then
    Scan.failf (Scan.Byte (base + at))
      "%s references string #%d but only %d strings are defined so far" what r
      st.tab.n
  else st.tab.arr.(r)

let decode_record st acc f ~base payload =
  let len = String.length payload in
  match payload.[0] with
  | '\x01' ->
    let id, pos = payload_uint ~base payload 1 ~what:"a string id" in
    if id <> st.tab.n then
      Scan.failf (Scan.Byte (base + 1))
        "string definition id %d out of order (expected %d)" id st.tab.n;
    let slen, pos = payload_uint ~base payload pos ~what:"a string length" in
    let s, pos = payload_bytes ~base payload pos slen ~what:"a string body" in
    if pos <> len then
      Scan.failf (Scan.Byte (base + pos))
        "string record has %d trailing bytes" (len - pos);
    strtab_push st.tab s;
    acc
  | '\x02' ->
    let kid, pos = payload_uint ~base payload 1 ~what:"a kind id" in
    if kid >= Array.length st.kinds then
      Scan.failf (Scan.Byte (base + 1))
        "kind id %d outside the registry snapshot (%d kinds)" kid
        (Array.length st.kinds);
    let dt, pos = payload_int ~base payload pos ~what:"a time delta" in
    let node_at = pos in
    let node_ref, pos = payload_uint ~base payload pos ~what:"a node ref" in
    let name_at = pos in
    let name_ref, pos = payload_uint ~base payload pos ~what:"a name ref" in
    let nattrs, pos = payload_uint ~base payload pos ~what:"an attr count" in
    let node = resolve_ref ~base st node_ref ~at:node_at ~what:"node" in
    let name = resolve_ref ~base st name_ref ~at:name_at ~what:"name" in
    let attrs = ref [] in
    let pos = ref pos in
    for _ = 1 to nattrs do
      let key_at = !pos in
      let key_ref, p = payload_uint ~base payload !pos ~what:"an attr key ref" in
      let vlen, p = payload_uint ~base payload p ~what:"an attr value length" in
      let v, p = payload_bytes ~base payload p vlen ~what:"an attr value" in
      let key = resolve_ref ~base st key_ref ~at:key_at ~what:"attr key" in
      attrs := (key, v) :: !attrs;
      pos := p
    done;
    if !pos <> len then
      Scan.failf (Scan.Byte (base + !pos))
        "event record has %d trailing bytes" (len - !pos);
    let us = st.prev_us + dt in
    st.prev_us <- us;
    let event =
      {
        Trace.time = float_of_int us /. 1e6;
        node;
        kind = st.kinds.(kid);
        name;
        attrs = List.rev !attrs;
      }
    in
    f acc event
  | c -> Scan.failf (Scan.Byte base) "unknown record tag 0x%02x" (Char.code c)

(* [try] rather than [Scan.protect]: no closure per fold, so the
   trace-analyze/binary-stream row's words/op stay where they were. *)
let fold_binary src ~init ~f =
  try
    let kinds = check_header src in
    let st = { kinds; tab = strtab_create (); prev_us = 0 } in
    let acc = ref init in
    let running = ref true in
    while !running do
      ensure src 1;
      if available src = 0 then running := false
      else begin
        let record_at = offset src in
        let len = read_uint src ~what:"a record length" in
        if len = 0 || len > max_record_bytes then
          Scan.failf (Scan.Byte record_at) "implausible record length %d" len;
        ensure src len;
        if available src < len then
          Scan.failf (Scan.Byte record_at)
            "record truncated: %d payload bytes declared at byte %d but the \
             stream ends after %d"
            len record_at (available src);
        let base = offset src in
        let payload = take src len in
        acc := decode_record st !acc f ~base payload
      end
    done;
    Ok !acc
  with Scan.Fail e -> Error e

(* --- JSONL decoding --- *)

(* A minimal parser for the exporter's own JSONL schema: one object per
   line with keys time/node/kind/name/attrs.  Accepts the keys in any
   order; rejects anything else with a line-numbered reason. *)

let read_line_opt src =
  ensure src 1;
  if available src = 0 then None
  else begin
    (* [rel] is relative to [src.lo]; [ensure] compacts the window but
       preserves lo-relative positions, so the scan survives refills. *)
    let rec scan rel =
      if src.lo + rel >= src.hi then
        if src.eof then -1
        else begin
          ensure src (rel + 4096);
          if src.lo + rel >= src.hi then -1 else scan rel
        end
      else if Bytes.get src.buf (src.lo + rel) = '\n' then rel
      else scan (rel + 1)
    in
    match scan 0 with
    | -1 ->
      (* final unterminated line *)
      Some (take src (available src))
    | rel ->
      let line = Bytes.sub_string src.buf src.lo rel in
      src.lo <- src.lo + rel + 1;
      Some line
  end

let is_number_byte = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_jsonl_event ~line_no line =
  let where i = Scan.Column (line_no, i + 1) in
  let lx = Scan.Json.lexer ~ws:false ~where line in
  let errf fmt = Scan.failf (Scan.Json.at lx (Scan.Json.pos lx)) fmt in
  let string () = Scan.Json.string lx ~raw:false in
  let number () =
    match Scan.Json.span lx is_number_byte with
    | "" -> errf "expected a number"
    | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> errf "malformed number %S" s)
  in
  let attr_object () =
    let acc = ref [] in
    Scan.Json.expect lx '{';
    Scan.Json.sequence lx ~close:'}' (fun () ->
        let k = string () in
        Scan.Json.expect lx ':';
        acc := (k, string ()) :: !acc);
    List.rev !acc
  in
  let time = ref None and node = ref None and kind = ref None in
  let name = ref None and attrs = ref None in
  Scan.Json.expect lx '{';
  Scan.Json.sequence lx ~close:'}' (fun () ->
      let key = string () in
      Scan.Json.expect lx ':';
      match key with
      | "time" -> time := Some (number ())
      | "node" -> node := Some (string ())
      | "kind" -> (
        let s = string () in
        match Trace.kind_of_string s with
        | Some k -> kind := Some k
        | None -> errf "unknown trace kind %S (registry: lib/sim/trace_kinds.txt)" s)
      | "name" -> name := Some (string ())
      | "attrs" -> attrs := Some (attr_object ())
      | k -> errf "unexpected key %S (schema: time,node,kind,name,attrs)" k);
  if Scan.Json.peek lx <> None then errf "trailing bytes after the JSON object";
  let req what = function
    | Some v -> v
    | None -> Scan.failf (Scan.Line line_no) "missing key %S" what
  in
  {
    Trace.time = req "time" !time;
    node = req "node" !node;
    kind = req "kind" !kind;
    name = req "name" !name;
    attrs = req "attrs" !attrs;
  }

let fold_jsonl src ~init ~f =
  Scan.protect @@ fun () ->
    let acc = ref init in
    let line_no = ref 0 in
    let running = ref true in
    while !running do
      match read_line_opt src with
      | None -> running := false
      | Some "" -> incr line_no (* tolerate blank lines *)
      | Some line ->
        incr line_no;
        acc := f !acc (parse_jsonl_event ~line_no:!line_no line)
    done;
    !acc

(* --- format sniffing --- *)

type detected = Binary | Jsonl

let detect src =
  let n = String.length Trace.binary_magic in
  ensure src n;
  if
    available src >= n
    && Bytes.sub_string src.buf src.lo n = Trace.binary_magic
  then Binary
  else Jsonl

let fold_auto src ~init ~f =
  match detect src with
  | Binary -> fold_binary src ~init ~f
  | Jsonl -> fold_jsonl src ~init ~f
