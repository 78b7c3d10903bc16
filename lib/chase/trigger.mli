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
    both {!all_delta} and {!fire}. *)

val all_delta : Rule.t list -> total:Instance.t -> delta:Instance.t -> t list
(** The triggers over [total] whose homomorphism uses at least one atom
    of [delta] (which must be a subset of [total]), each exactly once
    ({!delta_tasks}), in the order {!fire} consumes them. With
    [delta = total] this is exactly {!all}, and
    [all total = all_delta ~total ~delta ∪ all (total ∖ delta)]
    disjointly — property-tested in the suite. Run over the consecutive
    levels of a chase, with each round's new atoms as [delta], no trigger
    is therefore enumerated twice across the whole run. The
    enumeration-only entry, kept for the tests and for the benchmark
    harness, which replays it to time enumeration on its own. *)

type derivation = {
  fact : Atom.t;  (** a head atom new in its round *)
  trigger : t;  (** the first trigger of the round to derive it *)
  ext : Subst.t;
      (** the trigger's homomorphism extended by the fresh nulls of the
          rule's existential variables *)
}

val fire :
  ?pool:Pool.t ->
  gate:Nca_obs.Budget.Gate.t ->
  keep:(t -> bool) ->
  round:int ->
  Rule.t list ->
  total:Instance.t ->
  delta:Instance.t ->
  (int * Instance.t * Instance.t * derivation list, Nca_obs.Exhausted.t)
  result
(** One semi-naive round, the round of both {!Chase.run} and
    {!Datalog.saturate}. Each trigger of {!all_delta} is consumed as
    soon as it is enumerated: if [keep] accepts it, it {e fires} — its
    existential variables get fresh nulls in name order and each head
    atom not yet in the round's instance is added. Returns
    [Ok (fired, next, fresh, derivations)]: the number of kept
    triggers, [total] plus the new atoms, the new atoms, and one
    {!derivation} per new atom in first-derivation order. Without
    workers a round's memory is therefore bounded by its new atoms, not
    by its trigger count; with [pool], {!Pool.iter_ordered} still
    buffers the round's triggers.

    Only enumeration runs on the pool's domains: [keep] and every atom
    and null creation run on the calling domain in consumption order, so
    the result (null numbering included) is {e byte-identical} at any
    [jobs] count. [gate] is stepped once per enumerated trigger; once it
    trips the round unwinds and [fire] returns its verdict as [Error].
    Fact-level {!Nca_provenance.Provenance} (at [round], hom [ext]) is
    recorded only when the round completes, so a stopped round leaves no
    record. *)

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
