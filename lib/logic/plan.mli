(** Compiled join plans for homomorphism search.

    A plan is the once-per-body compilation of a rule body / CQ body: the
    mappable terms are numbered into dense {e slots}, every argument
    position is classified as a constant or a slot, and for every possible
    root atom a static step order (a {e variant}) is precomputed. The
    executor ({!Hom}) then runs a variant as a tight register machine
    over the sorted posting arrays of the target instance — no
    re-consulting of atom structure mid-search.

    The root variant is chosen {e at call time} with exactly the
    fewest-candidates scoring of the interpreted search kept as the test
    oracle ({!Instance.candidate_count} over the goals in original
    order, first strict minimum), so for bodies of at most two atoms the
    compiled enumeration order is identical to the oracle's. For larger
    bodies the oracle re-picks dynamically per search node while a
    variant's continuation is static, so match {e order} may deviate
    (the match {e set} never does); see DESIGN.md. *)

type arg =
  | Const of Term.t  (** rigid: must equal the target argument *)
  | Slot of int  (** mappable: read/write register [k] *)

type t = private {
  body : Atom.t array;  (** the source atoms, in original order *)
  preds : Symbol.t array;  (** [preds.(g) = Atom.pred body.(g)] *)
  args : arg array array;  (** per goal, its argument classification *)
  slot_terms : Term.t array;  (** slot [k] holds the image of this term *)
  variants : int array array;
      (** [variants.(r)] is a permutation of the goal indices with
          [variants.(r).(0) = r]: the static step order used when goal
          [r] is selected as root. *)
}

val compile : ?stats:Instance.t -> Atom.t list -> t
(** [compile ?stats body] builds the plan. [stats] (typically the
    instance the first execution targets) is only read for per-predicate
    cardinalities when ordering the continuation of each variant —
    greedy: most statically-bound positions first, then smaller relation,
    then original body position. It never affects correctness, only the
    step order of variants for bodies of three or more atoms. *)

val nslots : t -> int

val pp : t Fmt.t
(** Human-readable plan: slot table, then every variant with its step
    order and the per-position actions (const / probe / bind / check).
    Pinned by the [debug plan] goldens. *)

val pp_dot : t Fmt.t
(** The plan's join graph in DOT: one node per body atom (variant-0 root
    in bold), one edge per pair of goals sharing a slot, labelled with
    the shared terms. *)
