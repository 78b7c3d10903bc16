(** The (oblivious) chase, Section 2.2.

    [Ch_0(I,R) = I] and [Ch_{n+1}(I,R) = Ch_n(I,R) ∪ ⋃_{τ ∈ T_n} output(τ)]
    where [T_n] are the triggers over [Ch_n] that were not triggers over
    [Ch_{n-1}]. Every trigger fires exactly once (obliviously: even when
    its output is already entailed) because the semi-naive enumeration
    produces it exactly once over the run. The result records, per term,
    the {e timestamp} (Definition 34: the first level at which the term
    occurs) and, per invented null, the {e provenance} — the trigger that
    created it — which the peak-removing argument (Lemma 40) consumes. *)

open Nca_logic

type provenance = {
  rule : Rule.t;  (** the rule of the creating trigger *)
  hom : Subst.t;  (** its body homomorphism *)
  extension : Subst.t;  (** the extension mapping existential variables *)
  level : int;  (** the chase level at which the trigger fired *)
}

type t = {
  instance : Instance.t;  (** the union of all computed levels *)
  levels : Instance.t list;  (** [Ch_0; Ch_1; …; Ch_depth], cumulative *)
  depth : int;  (** number of levels computed *)
  saturated : bool;  (** no trigger was left to fire at the end *)
  stopped : Nca_obs.Exhausted.t option;
      (** the budget verdict when the run stopped before saturation: which
          resource (depth, atoms, wall clock, cancellation) ran out.
          [None] iff [saturated]. The computed prefix is always valid —
          identical to the corresponding prefix of an unbudgeted run. *)
  timestamps : int Term.Map.t;  (** Definition 34, for every term *)
  provenance : provenance Term.Map.t;  (** for every invented null *)
}

type variant =
  | Oblivious  (** every trigger fires exactly once (Section 2.2) *)
  | Semi_oblivious
      (** triggers agreeing on the rule and the frontier image are
          identified (the Skolem chase): body homomorphisms that differ
          only on non-frontier variables fire once. The only variant
          that keeps a table of fired keys across rounds. *)
  | Restricted
      (** a trigger is skipped when its head is already satisfiable by an
          extension of the frontier image in the instance at the start of
          its round — a breadth-first ("parallel") standard chase. Sound
          and universal like the oblivious chase, but often much smaller;
          used as an ablation in the benchmarks. *)

val run :
  ?variant:variant -> ?max_depth:int -> ?max_atoms:int ->
  ?budget:Nca_obs.Budget.t -> ?pool:Pool.t -> Instance.t -> Rule.t list -> t
(** Run the chase level-synchronously until saturation, [max_depth] levels
    (default 8), more than [max_atoms] atoms (default 20000), or any bound
    of [budget] — the legacy arguments and the budget intersect to the
    tighter value, so a wall-clock or cancellation budget composes with
    the structural defaults. A stop before saturation is reported in
    {!t.stopped} as a typed verdict, never an exception.

    Governor checkpoints: deadline/cancellation and the depth bound
    before each round, the atom bound after it, and — with or without
    [pool] — deadline/cancellation inside a round too, through a
    {!Nca_obs.Budget.Gate} stepped once per enumerated trigger and
    consulted every 4096 steps. A round the gate stops is discarded
    (fact-level provenance included), so the reported prefix is always
    a valid round boundary.

    Evaluation is delta-driven (semi-naive): each round is one
    {!Trigger.fire}, which enumerates only the triggers that use an atom
    created in the previous round instead of re-running every rule body
    over the whole instance, and fires each one as it is enumerated.
    The computed levels, timestamps and provenance are identical to the
    naive level-by-level definition; timestamps and per-null provenance
    are read off the round's new atoms.

    With [pool], each round's trigger enumeration runs across the pool's
    domains. Workers only {e enumerate} (no atoms, no nulls); the
    triggers come back in task order — the exact sequential order — and
    are fired on the calling domain, so the result (levels, null
    numbering, timestamps, provenance) is {e byte-identical} at any
    [jobs] count. Without workers a round is streamed and its memory is
    bounded by its new atoms; with workers the round's triggers are
    still buffered until the barrier.

    With telemetry on, the [chase.triggers] counter counts the triggers
    that fired: after the semi-oblivious merge and the restricted
    satisfaction filter, so at most the number enumerated. *)

val level : t -> int -> Instance.t
(** [level c k] is [Ch_k]; clamped to the last computed level. *)

val timestamp : t -> Term.t -> int option
(** Definition 34; [None] for terms outside the chase (total — the seed's
    bare [Not_found] is gone). *)

val timestamp_multiset :
  t -> Term.Set.t -> Nca_graph.Multiset.Int_multiset.t
(** [TSₘ(T)]: the multiset of timestamps of a set of terms. Terms outside
    the chase contribute nothing. *)

val terms : t -> Term.Set.t
val invented : t -> Term.Set.t
(** The chase terms: [adom(Ch(I,R)) ∖ adom(I)]. *)

val entails : ?tuple:Term.t list -> t -> Cq.t -> bool
(** Entailment over the computed (finite) prefix of the chase. *)

val holds_at : t -> Cq.t -> int option
(** The first level at which the (Boolean) query holds, if any. *)

val e_graph : Symbol.t -> t -> Nca_graph.Digraph.Term_graph.t
(** The E-graph of the chase result. *)

val pp_stats : t Fmt.t
