(** Two-party interactive communication over NDN (Section V-A's traffic
    class, and the victim of Section I's combined attack).

    Both parties continuously play producer and consumer: each serves
    its own outgoing frames under its prefix and pulls the peer's.
    Naming is either {e predictable} ([prefix/<seq>] — the attackable
    default) or {e unpredictable} (HMAC-derived last component from a
    shared secret, which is the paper's countermeasure for this traffic
    class). *)

type naming =
  | Predictable
  | Unpredictable of string  (** Shared secret seeding the PRF. *)

type t

val start :
  Ndn.Network.conversation_setup ->
  naming:naming ->
  frames:int ->
  ?interval_ms:float ->
  ?freshness_ms:float ->
  unit ->
  t
(** Wire producers on both endpoints and schedule the exchange: every
    [interval_ms] (default 20 ms — a voice frame cadence) Alice
    requests Bob's next frame and vice versa, [frames] times each.
    Each side's requests are events keyed on its own node
    ({!Ndn.Node.schedule_app_at}), so the call plays out identically at
    any shard count.  Returns immediately; run the network to let the
    call happen. *)

val frames_delivered : t -> int * int
(** (frames Alice received, frames Bob received) so far. *)

val complete : t -> bool
(** Both directions delivered every frame. *)

val frame_name : t -> [ `Alice | `Bob ] -> seq:int -> Ndn.Name.t
(** The name of a party's outgoing frame — what the {e peer} requests.
    For unpredictable naming this requires the shared secret, which is
    exactly why the adversary cannot compute it; exposed for tests and
    for the attack's "adversary guesses predictable names" arm. *)

val mean_frame_rtt : t -> float
(** Average frame retrieval latency across both directions ([nan]
    before any delivery). *)
