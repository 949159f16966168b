(* FIPS 180-4 SHA-256 over 32-bit words. OCaml's native int is at least
   63 bits, so we represent words as ints masked to 32 bits. *)

let digest_size = 32
let block_size = 64

let mask32 = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total_len : int; (* bytes absorbed so far *)
  mutable finalized : bool;
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h0 = 0x6a09e667;
    h1 = 0xbb67ae85;
    h2 = 0x3c6ef372;
    h3 = 0xa54ff53a;
    h4 = 0x510e527f;
    h5 = 0x9b05688c;
    h6 = 0x1f83d9ab;
    h7 = 0x5be0cd19;
    buf = Bytes.create block_size;
    buf_len = 0;
    total_len = 0;
    finalized = false;
    w = Array.make 64 0;
  }

(* Each Σ/σ group rotates one word three ways; on the doubled word
   [x lor (x lsl 32)] a 32-bit right-rotation by n is a plain [lsr n],
   exact because every bit read (at most bit 56) survives in the 63-bit
   int, so a group costs three shifts and one mask. *)
(* ndnlint: hot *)
let process_block ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i
      (Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask32)
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) in
    let xx = x lor (x lsl 32) in
    let s0 = ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask32 in
    let y = Array.unsafe_get w (i - 2) in
    let yy = y lor (y lsl 32) in
    let s1 = ((yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10)) land mask32 in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask32)
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4
  and f = ref ctx.h5
  and g = ref ctx.h6
  and h = ref ctx.h7 in
  for i = 0 to 63 do
    let ee = !e lor (!e lsl 32) in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask32 in
    let ch = !g lxor (!e land (!f lxor !g)) in
    (* Five words below 2^32: the sum fits, so mask only the outputs. *)
    let temp1 = !h + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let aa = !a lor (!a lsl 32) in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask32 in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + s0 + maj) land mask32
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask32;
  ctx.h1 <- (ctx.h1 + !b) land mask32;
  ctx.h2 <- (ctx.h2 + !c) land mask32;
  ctx.h3 <- (ctx.h3 + !d) land mask32;
  ctx.h4 <- (ctx.h4 + !e) land mask32;
  ctx.h5 <- (ctx.h5 + !f) land mask32;
  ctx.h6 <- (ctx.h6 + !g) land mask32;
  ctx.h7 <- (ctx.h7 + !h) land mask32

let feed_bytes ctx src ~off ~len =
  if ctx.finalized then invalid_arg "Sha256.feed: context already finalized";
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.feed_bytes: out of bounds";
  ctx.total_len <- ctx.total_len + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (block_size - ctx.buf_len) in
    Bytes.blit src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = block_size then begin
      process_block ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= block_size do
    process_block ctx src !pos;
    pos := !pos + block_size;
    remaining := !remaining - block_size
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: context already finalized";
  (* Padding, in place: 0x80, zeros, 64-bit big-endian bit length —
     spilling into a second block when fewer than 9 bytes are free. *)
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= block_size - 8 then begin
    Bytes.fill buf (n + 1) (block_size - n - 1) '\000';
    process_block ctx buf 0;
    Bytes.fill buf 0 (block_size - 8) '\000'
  end
  else Bytes.fill buf (n + 1) (block_size - 8 - n - 1) '\000';
  Bytes.set_int64_be buf (block_size - 8) (Int64.of_int (ctx.total_len * 8));
  process_block ctx buf 0;
  ctx.finalized <- true;
  let out = Bytes.create digest_size in
  Bytes.set_int32_be out 0 (Int32.of_int ctx.h0);
  Bytes.set_int32_be out 4 (Int32.of_int ctx.h1);
  Bytes.set_int32_be out 8 (Int32.of_int ctx.h2);
  Bytes.set_int32_be out 12 (Int32.of_int ctx.h3);
  Bytes.set_int32_be out 16 (Int32.of_int ctx.h4);
  Bytes.set_int32_be out 20 (Int32.of_int ctx.h5);
  Bytes.set_int32_be out 24 (Int32.of_int ctx.h6);
  Bytes.set_int32_be out 28 (Int32.of_int ctx.h7);
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digest s = Hex.encode (digest s)
