let block_size = Sha256.block_size

(* [pad] <- the key, zero-extended to one block, xor [byte]. *)
let fill_pad pad key byte =
  let n = String.length key in
  for i = 0 to block_size - 1 do
    let k = if i < n then Char.code (String.unsafe_get key i) else 0 in
    Bytes.unsafe_set pad i (Char.unsafe_chr (k lxor byte))
  done

let mac ~key msg =
  (* RFC 2104: keys longer than a block are hashed first. *)
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad = Bytes.create block_size in
  fill_pad pad key 0x36;
  let inner = Sha256.init () in
  Sha256.feed_bytes inner pad ~off:0 ~len:block_size;
  Sha256.feed inner msg;
  let inner_digest = Sha256.finalize inner in
  fill_pad pad key 0x5c;
  let outer = Sha256.init () in
  Sha256.feed_bytes outer pad ~off:0 ~len:block_size;
  Sha256.feed outer inner_digest;
  Sha256.finalize outer

let hex_mac ~key msg = Hex.encode (mac ~key msg)

let verify ~key ~msg ~tag =
  let expected = mac ~key msg in
  if String.length tag <> String.length expected then false
  else begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code expected.[i])) tag;
    !diff = 0
  end
