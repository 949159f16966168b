(** A robust consumer endpoint: retransmission and RTT estimation.

    The paper leans on retransmission twice: re-issued interests after
    packet loss are satisfied "by content cached closest to the
    location of actual loss" (Section V-A), and loss-recovery speed is
    the consumers' incentive not to mark everything private (Section
    V-B).  This module provides the retransmitting fetch loop and a
    TCP-style smoothed RTT estimator used to set its timeouts. *)

module Rtt_estimator : sig
  (** Jacobson/Karels smoothed RTT estimation (the classic
      [srtt + 4·rttvar] retransmission timeout). *)

  type t

  val create : ?initial_rto_ms:float -> unit -> t
  (** [initial_rto_ms] defaults to 1000. *)

  val observe : t -> rtt_ms:float -> unit
  (** Feed one RTT sample. *)

  val srtt : t -> float option
  (** Smoothed RTT; [None] before the first sample. *)

  val rto : t -> float
  (** Current retransmission timeout, clamped to [\[10 ms, 60 s\]]. *)

  val backoff : t -> unit
  (** Double the timeout after a loss (exponential backoff). *)

  val samples : t -> int
end

(** {1 Retry backoff policy}

    Layered {e between} attempts, on top of Karn/RTO: after a failed
    attempt the next interest waits an exponentially growing, jittered
    extra delay, so a population of consumers recovering from the same
    congestion event does not re-synchronize into the very burst that
    congested it. *)

type backoff

val backoff :
  ?base_ms:float ->
  ?factor:float ->
  ?jitter:float ->
  ?max_delay_ms:float ->
  Sim.Rng.t ->
  backoff
(** Delay before re-attempt [n+1] (after 1-based attempt [n] failed):
    [min max_delay_ms (base_ms * factor^(n-1))], then spread uniformly
    by at most [±jitter] (a fraction, drawn from the given generator —
    the policy's own stream, so fetches never perturb node or network
    randomness).  Defaults: 10 ms base, factor 2, jitter 0.1, cap 10 s.
    With [jitter = 0.] the generator is never consulted and the delays
    are exactly the deterministic exponential schedule.
    @raise Invalid_argument unless [base_ms > 0], [factor >= 1],
    [0 <= jitter < 1] and [max_delay_ms >= base_ms]. *)

val backoff_delay : backoff -> attempt:int -> float
(** The delay the policy would impose after 1-based [attempt] failed,
    consuming one jitter draw (none when [jitter = 0.]).  Exposed for
    property tests; {!fetch} calls it internally. *)

type outcome = {
  data : Data.t option;  (** [None] after exhausting retries. *)
  attempts : int;  (** Interests expressed (1 = no retransmission). *)
  elapsed_ms : float;
  nacks : int;  (** Attempts answered by a NACK (always 0 without a
                    backoff policy — plain fetches ignore NACKs). *)
}

val fetch :
  Node.t ->
  ?max_retries:int ->
  ?estimator:Rtt_estimator.t ->
  ?backoff:backoff ->
  ?consumer_private:bool ->
  on_done:(outcome -> unit) ->
  Name.t ->
  unit
(** Express an interest and retransmit on timeout, up to [max_retries]
    (default 3) additional attempts, with exponentially backed-off
    timeouts from the estimator (a fresh one per call when omitted).
    Per Karn's algorithm only first-attempt RTTs feed the estimator —
    a sample measured across a retransmission is ambiguous and would
    corrupt [srtt] — while the backed-off RTO is retained either way.
    Drive the engine to observe [on_done].

    [backoff] (default: none) arms the robust plane: retries wait the
    policy's jittered delay, an arriving NACK (requires
    {!Node.set_nacks_enabled} on the expressing forwarder) fails the
    attempt immediately instead of waiting out the RTO — the fast
    recovery path — and exhausting the budget emits a
    [consumer.give_up] trace record with the attempt and NACK counts.
    Without it, behavior is byte-identical to the historical fetch:
    NACKs are ignored and retries fire exactly at the RTO. *)

val fetch_sequence :
  Node.t ->
  ?max_retries:int ->
  ?backoff:backoff ->
  names:Name.t list ->
  on_done:(outcome list -> unit) ->
  unit ->
  unit
(** Fetch names one after another (each completing before the next is
    expressed), sharing one RTT estimator — a miniature reliable
    stream. *)
