(** HMAC-SHA256 (RFC 2104).

    The pseudo-random function used by the mutual ("unpredictable
    names") countermeasure: interacting parties derive the random name
    component of each content object as [HMAC(shared_secret, context)]
    (paper, Section V-A). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag.  Keys longer than the
    block size are hashed first, per RFC 2104.

    Each domain keeps a memo from key to the SHA-256 midstates after its
    ipad and opad blocks (see {!Sha256.resume}) and one scratch context,
    so a repeated key costs no pad hashing: a message shorter than 56
    bytes takes two compressions instead of four, and a tag allocates
    only the inner and outer digests.  A long key is hashed once, when
    it enters the memo.  The memo holds at most 64 keys and is emptied,
    not grown, when a new key would exceed that.  A hit returns exactly
    what recomputing would, so tags do not depend on the memo's history
    or on which domain computes them. *)

val hex_mac : key:string -> string -> string
(** Like {!mac} but hex-encoded (64 chars). *)

val verify : key:string -> msg:string -> tag:string -> bool
(** Constant-time-ish comparison of [tag] against [mac ~key msg].
    (Timing uniformity is best-effort; the simulator's adversary model
    never times this code.) *)
