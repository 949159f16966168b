let block_size = Sha256.block_size

(* [pad] <- the key, zero-extended to one block, xor [byte]. *)
let fill_pad pad key byte =
  let n = String.length key in
  for i = 0 to block_size - 1 do
    let k = if i < n then Char.code (String.unsafe_get key i) else 0 in
    Bytes.unsafe_set pad i (Char.unsafe_chr (k lxor byte))
  done

(* A key's two midstates: SHA-256 after absorbing the key xor ipad
   (inner) and xor opad (outer) blocks.  Both sit on a block boundary,
   so {!Sha256.resume} can start any tag from them. *)
type midstates = { inner : Sha256.ctx; outer : Sha256.ctx }

let midstates key =
  (* RFC 2104: keys longer than a block are hashed first. *)
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad = Bytes.create block_size in
  let absorb byte =
    fill_pad pad key byte;
    let ctx = Sha256.init () in
    Sha256.feed_bytes ctx pad ~off:0 ~len:block_size;
    ctx
  in
  let inner = absorb 0x36 in
  { inner; outer = absorb 0x5c }

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type memo = { keys : midstates Stbl.t; scratch : Sha256.ctx }

(* A simulation signs with a handful of producer keys, so each key's
   pads are hashed once and every later tag costs two compressions for
   a short message instead of four.  The memo is per-domain
   (Domain.DLS), the same pattern as the Name intern table and the Zipf
   CDF memo: Sim.Parallel trial domains each keep their own table and
   scratch context, nothing is shared or locked, and a memo hit returns
   exactly what recomputing would, so tags are byte-identical for any
   --jobs or --shards.  The table is reset, not grown, past [memo_cap]
   keys. *)
let memo_cap = 64

let memo =
  Domain.DLS.new_key (fun () -> { keys = Stbl.create 8; scratch = Sha256.init () })

let key_midstates keys key =
  match Stbl.find keys key with
  | m -> m
  | exception Not_found ->
    if Stbl.length keys >= memo_cap then Stbl.reset keys;
    let m = midstates key in
    Stbl.add keys key m;
    m

let mac ~key msg =
  let { keys; scratch } = Domain.DLS.get memo in
  let m = key_midstates keys key in
  Sha256.resume scratch ~from:m.inner;
  Sha256.feed scratch msg;
  let inner_digest = Sha256.finalize scratch in
  Sha256.resume scratch ~from:m.outer;
  Sha256.feed scratch inner_digest;
  Sha256.finalize scratch

let hex_mac ~key msg = Hex.encode (mac ~key msg)

let verify ~key ~msg ~tag =
  let expected = mac ~key msg in
  if String.length tag <> String.length expected then false
  else begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code expected.[i])) tag;
    !diff = 0
  end
