(** Existential rules.

    A rule [∀x̄,ȳ B(x̄, ȳ) → ∃z̄ H(ȳ, z̄)] with non-empty body and head
    (Section 2.1). The frontier [ȳ] is the set of variables shared by body
    and head; head variables outside the body are existential. *)

type t = private {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
  body_vars : Term.Set.t;
  head_vars : Term.Set.t;
  frontier : Term.Set.t;
  exist_vars : Term.Set.t;
}
(** The variable sets are computed once, by {!make} and {!rename}. *)

val make : ?name:string -> Atom.t list -> Atom.t list -> t
(** [make body head] builds a rule. Raises [Invalid_argument] when body or head is empty, or when a
    non-variable mappable term occurs. *)

val name : t -> string
val body : t -> Atom.t list
val head : t -> Atom.t list

val body_vars : t -> Term.Set.t
val head_vars : t -> Term.Set.t

val frontier : t -> Term.Set.t
(** Variables occurring in both body and head. *)

val exist_vars : t -> Term.Set.t
(** Head variables that are not in the body. *)

val is_datalog : t -> bool
(** No existential variables (Section 2.1). *)

val rename_apart : t -> t
(** Fresh-rename all variables of the rule. *)

val rename : ?name:string -> t -> t
(** Like {!rename_apart} but also allows renaming the rule itself. *)

val signature : t list -> Symbol.Set.t
(** All predicates occurring in a rule set. *)

val split_datalog : t list -> t list * t list
(** [(datalog, existential)] partition of a rule set — the paper's
    [S^DL] and [S^∃] (Section 4.4.1). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
val pp_set : t list Fmt.t
