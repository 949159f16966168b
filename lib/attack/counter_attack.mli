(** Exact request-count recovery against the naïve k-threshold scheme
    (Section VI, "A Non-Private Naïve Approach"): Algorithm 1 with
    {!Core.Kdist.Constant} [k], which misses the first request and then
    requests 1…k and hits every later one.

    Because the naïve scheme's threshold k is public and deterministic,
    the adversary issues probes until the first cache hit and solves
    for the number of prior requests: if the first hit arrives on probe
    j*, then exactly [x = k + 2 − j*] requests preceded the probing
    (with x = 0 and "never requested" coinciding at j* = k + 2). *)

type outcome = {
  probes_used : int;  (** j* — index of the adversary's first hit. *)
  recovered_count : int;  (** The inferred number of prior requests. *)
}

val run :
  Core.Random_cache.t -> k:int -> Ndn.Name.t -> max_probes:int -> outcome option
(** Probe through the cache until the first hit and solve for the
    count assuming threshold [k] ([None] if no hit within [max_probes]
    — the content is fresh and k is larger than the probe budget allows
    distinguishing).  Exact when the cache draws {!Core.Kdist.Constant}
    [k]. *)

val demonstrate :
  k:int -> prior_requests:int -> outcome option
(** Self-contained demonstration: build a Random-Cache with
    {!Core.Kdist.Constant} [k] (the naïve scheme), feed it
    [prior_requests] honest requests, run the attack and return what
    the adversary learns.  Used by tests to verify
    [recovered_count = prior_requests] for all [prior_requests <= k+1]. *)

val random_cache_resists :
  kdist:Core.Kdist.t -> prior_requests:int -> seed:int -> outcome option
(** The same attack mounted on Random-Cache: the recovered "count" is
    wrong except by luck, because the threshold is secret and random.
    Returns the attacker's (deluded) outcome for comparison. *)
