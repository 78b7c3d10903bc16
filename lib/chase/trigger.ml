open Nca_logic

type t = { rule : Rule.t; hom : Subst.t }

module Key = struct
  (* [rule] is the interned name id, [bindings] compare by int code:
     key equality, comparison and hashing never touch a string. *)
  type t = { rule : int; bindings : Term.t list }

  let equal a b =
    Int.equal a.rule b.rule && List.equal Term.equal a.bindings b.bindings

  let compare a b =
    match Int.compare a.rule b.rule with
    | 0 -> List.compare Term.compare a.bindings b.bindings
    | c -> c

  (* [Hashtbl.hash] stops after a few nodes, which collides badly on long
     binding lists differing only in their tail; fold the whole list. *)
  let hash k =
    List.fold_left (fun h t -> (h * 31) + Term.hash t) k.rule k.bindings

  let pp ppf k =
    Fmt.pf ppf "%s|%a" (Names.name k.rule)
      Fmt.(list ~sep:(any "|") Term.pp)
      k.bindings
end

let make_key rule vars hom =
  {
    Key.rule = Names.intern (Rule.name rule);
    bindings = List.map (Subst.apply hom) (Term.Set.elements vars);
  }

let key tr = make_key tr.rule (Rule.body_vars tr.rule) tr.hom
let frontier_key tr = make_key tr.rule (Rule.frontier tr.rule) tr.hom

let all rules i =
  List.concat_map
    (fun rule ->
      List.map (fun hom -> { rule; hom }) (Hom.all (Rule.body rule) i))
    rules

(* Semi-naive enumeration: a homomorphism into [total] uses a delta atom
   iff some body position maps into [delta]; pinning the {e first} such
   position [p] — positions before [p] map into [total ∖ delta], position
   [p] into [delta], positions after [p] anywhere in [total] — partitions
   the delta-using homomorphisms, so each is produced exactly once.

   The (rule, pivot) pairs are independent joins over frozen instances,
   so they are the task unit of [Pool.iter_ordered]: the triggers come
   out in task order at any [jobs] count (workers create no atoms and no
   nulls; enumeration only reads). *)

let delta_tasks rules ~total ~delta =
  let old = Instance.diff total delta in
  List.concat_map
    (fun rule ->
      let body = Rule.body rule in
      List.mapi
        (fun pivot _ ->
          ( rule,
            List.mapi
              (fun j a ->
                ( a,
                  if j < pivot then old
                  else if j = pivot then delta
                  else total ))
              body ))
        body)
    rules

exception Gate_tripped

(* [step] runs once per enumerated trigger, on whichever domain
   enumerates; raising [Gate_tripped] unwinds every task. *)
let iter_delta ?pool ~step rules ~total ~delta consume =
  let tasks = Array.of_list (delta_tasks rules ~total ~delta) in
  try
    Pool.iter_ordered pool (Array.length tasks)
      (fun i emit ->
        let rule, goals = tasks.(i) in
        Hom.iter_targets goals (fun hom ->
            step ();
            emit { rule; hom }))
      consume
  with Gate_tripped -> ()

let all_delta rules ~total ~delta =
  let acc = ref [] in
  iter_delta ~step:ignore rules ~total ~delta (fun tr -> acc := tr :: !acc);
  List.rev !acc

(* Atoms and nulls are created only here, on the calling domain, in
   consumption order: atom ids decide the next round's enumeration
   order, so this keeps the output the same at any [jobs] count. *)
type derivation = { fact : Atom.t; trigger : t; ext : Subst.t }

let fire ?pool ~gate ~keep ~round rules ~total ~delta =
  let fired = ref 0 and next = ref total and fresh = ref Instance.empty in
  let derivations = ref [] in
  let step () =
    if Nca_obs.Budget.Gate.step gate then raise_notrace Gate_tripped
  in
  iter_delta ?pool ~step rules ~total ~delta (fun tr ->
      if keep tr then begin
        incr fired;
        let ext =
          (* fresh nulls in name order, so null numbering is
             deterministic; a Datalog trigger creates none *)
          if Rule.is_datalog tr.rule then tr.hom
          else
            List.fold_left
              (fun acc z -> Subst.add z (Term.fresh_null ()) acc)
              tr.hom
              (Term.sorted_elements (Rule.exist_vars tr.rule))
        in
        List.iter
          (fun h ->
            let a = Subst.apply_atom ext h in
            if not (Instance.mem a !next) then begin
              next := Instance.add a !next;
              fresh := Instance.add a !fresh;
              derivations := { fact = a; trigger = tr; ext } :: !derivations
            end)
          (Rule.head tr.rule)
      end);
  match Nca_obs.Budget.Gate.tripped gate with
  | Some err -> Error err
  | None ->
      let derivations = List.rev !derivations in
      (* fact-level provenance only for a completed round; the stored hom
         is the full extension, so one substitution instantiates both the
         body (→ parents) and the head (→ the fact) *)
      if Nca_provenance.Provenance.enabled () then
        List.iter
          (fun { fact; trigger = { rule; hom }; ext } ->
            Nca_provenance.Provenance.record fact ~rule ~hom:ext ~round
              ~parents:(Subst.apply_atoms hom (Rule.body rule)))
          derivations;
      Ok (!fired, !next, !fresh, derivations)

let frontier_image tr =
  Term.Set.map (Subst.apply tr.hom) (Rule.frontier tr.rule)

let pp ppf tr =
  Fmt.pf ppf "⟨%s, %a⟩" (Rule.name tr.rule) Subst.pp tr.hom
