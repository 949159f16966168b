(** Private-content marking semantics (paper, Section V).

    Three non-exclusive ways content becomes private:
    producer-driven (a privacy bit or reserved name component set by
    the producer), consumer-driven (a privacy bit in the interest), and
    mutual (unpredictable names — handled by
    {!Unpredictable_names}, invisible to routers).

    The router-side combination rules implemented here:
    - producer-private content is ALWAYS treated as private, whatever
      consumers ask for;
    - content not marked by its producer is private while only
      privacy-requesting consumers have touched it, but the first
      non-private interest for it acts as a TRIGGER: from then on (for
      as long as the object stays cached) it is treated as non-private
      — otherwise an adversary probing twice without the privacy bit
      could detect that someone requested it privately (Section V-B). *)

type t

type verdict = Private | Public

val create : unit -> t

val classify :
  t ->
  name:Ndn.Name.t ->
  producer_private:bool ->
  consumer_private:bool ->
  verdict
(** Apply the combination rules to one interest hitting cached content,
    updating trigger state. *)

val name_marked_private : Ndn.Name.t -> bool
(** Does the name carry the reserved ["private"] component as its last
    component? *)

val is_triggered : t -> Ndn.Name.t -> bool
(** Has the first-non-private trigger fired for this name? *)

val on_evicted : t -> Ndn.Name.t -> unit
(** Forget trigger state when the object leaves the cache: the
    non-private status only holds "as long as it remains in R's
    cache". *)
