(** Negative acknowledgements.

    The original NDN wire has only interests and content; deployed
    forwarders (NFD) added NACKs so that a router which {e cannot}
    satisfy or forward an interest can say so instead of letting the
    downstream consumer discover the failure by timeout.  Under
    interest-flooding overload this matters twice: honest consumers
    recover in an RTT instead of a PIT lifetime, and the NACK stream
    itself is part of the side channel the overload experiments
    measure.

    A NACK travels the reverse path of the interest it answers, like
    Data but without satisfying anything: PIT state is consumed so
    later retransmissions re-forward.  Generation and propagation are
    disabled by default ([Ndn.Node] ignores the feature unless
    switched on), keeping legacy runs byte-identical. *)

type reason =
  | Congested  (** A bounded link transmission queue refused the hop. *)
  | No_route  (** No FIB entry matched at some upstream router. *)
  | Pit_full  (** A finite PIT's admission policy refused the entry. *)
  | Duplicate  (** The nonce was already pending (forwarding loop). *)

type t = private {
  name : Name.t;  (** Name of the interest being refused. *)
  nonce : int64;  (** Nonce of the refused interest. *)
  reason : reason;
}

val create : nonce:int64 -> reason:reason -> Name.t -> t

val trace_kind : reason -> Sim.Trace.kind
(** The registered [Sim.Trace] kind for this reason ([nack.congested],
    [nack.no_route], [nack.pit_full], [nack.duplicate]).  ndnlint rule
    T3 fails the build if a constructor is added here without a
    matching registry entry. *)

val import : t -> t
(** Re-intern the name in the current domain's hash-cons table
    ({!Name.import}), for packets crossing shards.  Semantically the
    identity. *)

val equal : t -> t -> bool
