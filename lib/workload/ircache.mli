(** Synthetic stand-in for the IRCache/NLANR proxy trace.

    The paper replays an HTTP trace collected 2007-09-01 at Research
    Triangle Park: 185 users, ~3.2 million requests over 24 hours.
    IRCache traces are no longer distributed, so we generate a
    statistically comparable workload (DESIGN.md §2):

    - object popularity: a Zipf core catalog plus a one-timer tail
      (a large fraction of proxy requests are for never-repeated
      objects — this is what caps the infinite-cache hit rate around
      50%, as in the paper's "Inf" column);
    - user activity: lognormal-ish heterogeneity over 185 users;
    - arrivals: 24-hour span with a diurnal intensity profile.

    Deterministic given the seed. *)

type config = {
  requests : int;
  users : int;
  catalog : int;  (** Size of the repeatedly-requested Zipf catalog. *)
  zipf_exponent : float;
  one_timer_fraction : float;
      (** Probability that a request targets a fresh never-repeated
          object. *)
  duration_s : float;
  seed : int;
}

val default : config
(** Scaled-down default for interactive runs: 400k requests, 185
    users, 24 h.  Matches the paper's user count and duration; the
    full replay is [{ default with requests = 3_200_000; catalog =
    120_000 }]. *)

val generate : config -> Trace.t
(** @raise Invalid_argument on non-positive [requests], [users],
    [catalog] or [duration_s]. *)

val pp_config : Format.formatter -> config -> unit
