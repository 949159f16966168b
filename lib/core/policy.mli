(** Cache-privacy policies at the request/response level — the
    algorithmic layer replayed against traces in the paper's Section
    VII evaluation (our Figure 5).

    A policy sees, for each incoming request: the (group) name, whether
    the content is privacy-sensitive, and whether it is really in the
    cache; it answers with the *observable* outcome — what the
    requesting consumer experiences.  A delayed/hidden hit is
    observationally a miss, which is exactly how the paper accounts
    cache-hit rates. *)

type kind =
  | No_privacy
      (** Baseline: the cache answers truthfully. *)
  | Always_delay
      (** Section V-B basic protocol: every request for cached private
          content is answered like a miss (the response is served from
          the cache but artificially delayed, preserving bandwidth). *)
  | Random_cache of Kdist.t
      (** Algorithm 1 with the given threshold distribution
          ({!Kdist.Uniform} = Uniform-Random-Cache,
          {!Kdist.Truncated_geometric} = Exponential-Random-Cache). *)

type t

val create : ?grouping:Grouping.t -> rng:Sim.Rng.t -> kind -> t
(** [grouping] (default {!Grouping.By_content}) keys Algorithm 1 state
    by content group to resist correlation attacks. *)

val label : t -> string
(** Display name matching the paper's legend, e.g.
    ["Uniform-Random-Cache"]. *)

val on_request :
  t -> name:Ndn.Name.t -> is_private:bool -> cached:bool -> Random_cache.output
(** Observable outcome of one request.  Real misses ([cached = false])
    are always observable misses — "CM can hide cache hits but cannot
    hide cache misses" (Section IV); Algorithm-1 counters still advance
    on them. *)
