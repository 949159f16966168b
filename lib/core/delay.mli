(** Artificial-delay countermeasures for content-distribution traffic
    (paper, Section V-B).

    A consumer-facing router hides cache hits on private content by
    delaying them so they look like misses.  Three flavours:

    - {b Constant γ}: every private hit waits γ ms; private misses are
      padded so the total interest→data delay is also γ.  Simple, but
      either penalizes nearby content (γ too high) or leaks for
      far-away content (actual delay > γ).
    - {b Content-specific γ_C}: the router remembers the delay it
      originally experienced fetching each object and replays exactly
      that on every hit.  Safest; keeps far-away content slow forever.
    - {b Dynamic}: starts at γ_C and decays as the object becomes
      popular, mimicking the object getting cached at a nearby router —
      never below the two-hop floor required by Definition IV.2. *)

type t =
  | Constant of float  (** γ in milliseconds. *)
  | Content_specific
  | Dynamic of { floor : float; half_life_requests : float }
      (** Delay halves every [half_life_requests] requests, never below
          [floor] (the RTT of content cached two hops away). *)

val hit_delay : t -> fetch_delay:float -> hits_so_far:int -> float
(** Artificial delay to apply to a cache hit on private content.
    [fetch_delay] is the recorded γ_C (for [Constant], ignored);
    [hits_so_far] drives the dynamic decay. *)

val miss_padding : t -> actual_delay:float -> float
(** Extra delay to add when forwarding a fetched private object
    downstream, so the total matches the policy's target ([0] for
    content-specific and dynamic policies, whose target equals the
    actual delay). *)
