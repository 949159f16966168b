(** Multi-segment amplification (Section III).

    Large NDN content is split into many content objects; the
    per-object distinguisher need only succeed once.  With per-object
    success probability p and n independent segments, the paper
    computes [Pr(SUCCESS) = 1 − (1 − p)^n] — e.g. p = 0.59, n = 8
    gives ≈ 0.999. *)

val theoretical_success : p:float -> segments:int -> float
(** The paper's formula [1 − (1 − p)^n].
    @raise Invalid_argument unless [0 <= p <= 1] and [segments >= 1]. *)

val paper_example_row : segments:int -> float
(** The in-text example with p = 0.59 (so failure 0.41). *)

type result = {
  per_object_success : float;  (** Measured single-probe success. *)
  amplified_success : float;  (** Measured majority-vote success over all segments. *)
  predicted : float;  (** [theoretical_success] at the measured p. *)
}

val run :
  make_setup:(seed:int -> Ndn.Network.probe_setup) ->
  segments:int ->
  ?trials:int ->
  unit ->
  result
(** Empirical check in a live topology: per trial, a multi-segment
    content is (or is not) pre-fetched by the honest user; the
    adversary probes every segment, classifies each RTT with a
    {!Detector} trained on reference segments, and votes.  Majority
    voting is the realizable analogue of the paper's idealized
    "one success suffices" argument (the adversary cannot tell which
    individual classifications were correct). *)
