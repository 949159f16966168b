(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for content-object signatures and as the compression function
    behind {!Hmac}, which in turn drives the unpredictable-name
    countermeasure of the paper (Section V-A).  Signing is a large share
    of a simulated LAN attack, so the kernel runs the message schedule
    and the 64 rounds on unboxed [int64] locals (no tag bit to restore
    after a shift or logical op, nothing allocated per block), computes
    each Σ/σ group as three shifts of one doubled word, masks only the
    words that are rotated again, and pads in place without allocating.
    Not constant-time: never use it against real adversaries. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx

val feed : ctx -> string -> unit
(** Absorb bytes.  May be called repeatedly. *)

val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit

val finalize : ctx -> string
(** Produce the 32-byte digest.  The context must not be reused
    afterwards.
    @raise Invalid_argument on double finalization. *)

val resume : ctx -> from:ctx -> unit
(** [resume ctx ~from] makes [ctx] continue from [from]'s saved
    chaining state, as if it had absorbed the same bytes: afterwards
    [feed ctx m; finalize ctx] is the digest of [from]'s input followed
    by [m].  [ctx] may be fresh, mid-stream or finalized — it is
    reset — and [from] is only read, so one saved state can seed any
    number of hashes.  {!Hmac} uses this to hash each key's padded
    block once and start every later tag from it.
    @raise Invalid_argument if [from] is finalized or holds a partial
    block (its input length is not a multiple of {!block_size}). *)

val digest : string -> string
(** One-shot hash: 32 raw bytes. *)

val hex_digest : string -> string
(** One-shot hash, lowercase hex (64 chars). *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64 — needed by HMAC. *)
