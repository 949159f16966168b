(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for content-object signatures and as the compression function
    behind {!Hmac}, which in turn drives the unpredictable-name
    countermeasure of the paper (Section V-A).  Signing is a large share
    of a simulated LAN attack, so the kernel loads big-endian words,
    computes each Σ/σ group as shifts of one doubled word under a single
    mask, and pads in place without allocating.  Not constant-time:
    never use it against real adversaries. *)

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

val digest : string -> string
(** One-shot hash: 32 raw bytes. *)

val hex_digest : string -> string
(** One-shot hash, lowercase hex (64 chars). *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64 — needed by HMAC. *)
