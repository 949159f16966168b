(** Detecting two-way interactive communication (Section I).

    "A combination of these two attacks can be used to learn whether
    two parties (Alice and Bob) have been recently, or still are,
    involved in a two-way interactive communication, e.g., voice or
    SSH."

    The adversary shares a router with both parties, guesses recent
    frame names under each party's namespace ([prefix/<seq>] is
    predictable for ordinary sessions), and probes the router's cache
    with scope-limited interests.  Fresh frames from BOTH namespaces
    imply an ongoing conversation.  Unpredictable naming removes the
    adversary's ability to construct any probe name. *)

type verdict = Talking | Not_talking

type result = {
  trials : int;
  accuracy : float;  (** Probability of the correct verdict; 0.5 = blind. *)
  false_positives : int;
  false_negatives : int;
}

val probe_conversation :
  Ndn.Network.conversation_setup -> unit -> verdict
(** One campaign against a (possibly silent) conversation topology:
    probe sequence numbers [0 .. 32) under both
    parties' predictable namespaces with scope-2 interests and declare
    {!Talking} iff both sides show a cached frame. *)

val run :
  naming:Core.Interactive_session.naming ->
  ?trials:int ->
  ?frames:int ->
  ?seed:int ->
  unit ->
  result
(** Full experiment: per trial, a conversation happens (or not, 50/50);
    the adversary then runs {!probe_conversation}.  With [Predictable]
    naming the accuracy should be ~1; with [Unpredictable _] it must
    collapse to ~0.5 (the adversary cannot name anything to probe).
    @raise Invalid_argument if [trials] or [frames] is below 1. *)
