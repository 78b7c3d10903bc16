(** Homomorphism search.

    A homomorphism from a set of atoms [A] to an instance [B] is a
    substitution [π] with [π(A) ⊆ B] (Section 2.1). Constants are rigid;
    variables and nulls may be mapped. The search is a backtracking
    constraint solver over the per-predicate index of the target.

    When [inj] is set, the homomorphism is additionally required to be
    injective on the mappable terms of the source (used for the paper's
    [⊨_inj], Section 2.1).

    The solver expands sub-goals fewest-candidates-first, where candidate
    sets come from the target's positional index
    ({!Instance.candidates}): once any position of a body atom is bound,
    only the atoms agreeing with that binding are scanned. *)

val iter :
  ?inj:bool ->
  ?init:Subst.t ->
  Atom.t list ->
  Instance.t ->
  (Subst.t -> unit) ->
  unit
(** [iter ~inj ~init src tgt f] calls [f] on every homomorphism from [src]
    to [tgt] extending [init]. Each reported substitution binds exactly the
    mappable terms of [src] (plus the bindings of [init]). *)

val iter_targets :
  ?init:Subst.t -> (Atom.t * Instance.t) list -> (Subst.t -> unit) -> unit
(** Like {!iter}, but each source atom matches into its own target
    instance. This is the primitive behind semi-naive (delta-driven)
    enumeration: stratifying the body of a rule over (old, delta, total)
    enumerates exactly the homomorphisms that use at least one delta
    atom, each exactly once. *)

val find : ?inj:bool -> ?init:Subst.t -> Atom.t list -> Instance.t -> Subst.t option
val exists : ?inj:bool -> ?init:Subst.t -> Atom.t list -> Instance.t -> bool
val all : ?inj:bool -> ?init:Subst.t -> Atom.t list -> Instance.t -> Subst.t list

val count : ?inj:bool -> ?init:Subst.t -> Atom.t list -> Instance.t -> int

val maps_into : Instance.t -> Instance.t -> bool
(** [maps_into a b] holds when there is a homomorphism from [a] to [b]. *)

val hom_equiv : Instance.t -> Instance.t -> bool
(** Homomorphic equivalence [a ↔ b]: homomorphisms both ways. *)

val isomorphic : Instance.t -> Instance.t -> bool
(** Existence of a bijective homomorphism whose inverse is a homomorphism.
    On instances of equal cardinality an injective surjective atom-level
    embedding suffices. *)
