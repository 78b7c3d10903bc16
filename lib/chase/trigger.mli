(** Triggers: a rule together with a homomorphism from its body.

    An [R]-trigger over an instance [I] is a pair [⟨ρ, h⟩] of a rule
    [ρ ∈ R] and a homomorphism [h] from [body(ρ)] to [I] (Section 2.2). *)

open Nca_logic

type t = { rule : Rule.t; hom : Subst.t }

(** Structural trigger identity: the rule's name (as an interned
    {!Names} id) together with the ordered images of a variable set.
    Hashable — the semi-oblivious chase stores fired frontier keys in a
    [Hashtbl.Make (Trigger.Key)] — with equality, comparison and
    hashing all pure int arithmetic. *)
module Key : sig
  type t = { rule : int; bindings : Term.t list }

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : t Fmt.t
end

val all : Rule.t list -> Instance.t -> t list
(** [triggers(I, R)]: every trigger of every rule over the instance. Each
    reported homomorphism binds exactly the body variables. *)

val delta_tasks :
  Rule.t list -> total:Instance.t -> delta:Instance.t ->
  (Rule.t * (Atom.t * Instance.t) list) list
(** The pivot decomposition behind semi-naive evaluation: one
    [(rule, goals)] task per rule and body position [p] (the pivot),
    where [goals] pairs each body atom with the instance it ranges over —
    [total ∖ delta] before [p], [delta] at [p], [total] after it. The
    homomorphisms of the tasks' goal lists partition the homomorphisms
    into [total] that use at least one atom of [delta]. The task unit of
    both {!all_delta} and {!Datalog.saturate}. *)

exception Gate_tripped
(** Raised by {!step} inside a task to unwind a round whose budget gate
    has tripped. *)

val step : Nca_obs.Budget.Gate.t -> unit
(** [step gate] records one unit of round work on the gate and raises
    {!Gate_tripped} once it has tripped. *)

val all_delta :
  ?pool:Pool.t ->
  ?gate:Nca_obs.Budget.Gate.t ->
  Rule.t list ->
  total:Instance.t ->
  delta:Instance.t ->
  t list
(** The triggers over [total] whose homomorphism uses at least one atom
    of [delta] (which must be a subset of [total]) — the per-round work
    of a semi-naive chase. Each such trigger is enumerated exactly once
    ({!delta_tasks}). With [delta = total] this is exactly {!all}, and
    [all total = all_delta ~total ~delta ∪ all (total ∖ delta)]
    disjointly — property-tested in the suite. Run over the consecutive
    levels of a chase, with each round's new atoms as [delta], no trigger
    is therefore enumerated twice across the whole run.

    The tasks run through {!Pool.iter_ordered}, so with [pool] they are
    enumerated across the pool's domains and the returned list is
    {e identical} to the one without — enumeration is read-only (no
    atoms, no nulls). With [gate], every reported homomorphism steps the
    gate; once it trips, every task unwinds and the caller must check
    {!Nca_obs.Budget.Gate.tripped} and discard the partial round. *)

val output : t -> Instance.t * Subst.t
(** The output of the trigger: [h'(head ρ)] where [h'] extends [h] by
    mapping each existential variable to a globally fresh null. Also
    returns [h'] (the extension), whose restriction to the existential
    variables identifies the created nulls. *)

val key : t -> Key.t
(** A canonical identity for the trigger: rule name + the ordered
    bindings of all body variables. Distinct triggers of a rule have
    distinct keys. *)

val frontier_key : t -> Key.t
(** Semi-oblivious (Skolem) identity: rule name + the ordered bindings of
    the frontier variables only. *)

val frontier_image : t -> Term.Set.t
(** The image of the rule's frontier under the trigger's homomorphism —
    the frontier of the chase terms the trigger creates (Section 2.2). *)

val pp : t Fmt.t
