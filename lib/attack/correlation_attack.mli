(** Correlation attack on Random-Cache and the grouping defence
    (Section VI, "Addressing Content Correlation").

    Random-Cache assumes statistically independent content.  When M
    related contents (segments of one video, pages of one site) are
    always requested together, each carries an independent threshold —
    so by probing all M once, the adversary effectively samples M
    thresholds and succeeds if {e any} of them reveals a hit:
    advantage ≈ 1 − (1 − q)^M, overwhelming for large M.  Grouping
    collapses the set to a single threshold and restores the
    single-content guarantee. *)

type result = {
  trials : int;
  adversary_accuracy : float;
      (** Probability of correctly deciding "was this related set
          requested before?"; 0.5 = no advantage. *)
}

val run :
  grouping:Core.Grouping.t ->
  kdist:Core.Kdist.t ->
  related_contents:int ->
  prior_requests:int ->
  ?trials:int ->
  unit ->
  result
(** Per trial: a fresh Random-Cache instance keyed by [grouping]; with
    probability 1/2 each of the M related contents (one namespace,
    [prior_requests] requests each, interleaved) was requested before.
    The adversary probes each content once and answers "requested"
    iff it observes at least one hit. *)

val advantage_theoretical :
  kdist:Core.Kdist.t -> related_contents:int -> prior_requests:int -> float
(** Closed-form accuracy of that adversary against ungrouped
    Random-Cache: [1/2 + (1 − (1 − q)^M)/2] with
    [q = Pr(k_C < prior_requests)] (a probe of a warmed content is
    request [prior+1], a hit iff [prior + 1 > k_C + 1]). *)
