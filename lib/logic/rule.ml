type t = {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
  body_vars : Term.Set.t;
  head_vars : Term.Set.t;
  frontier : Term.Set.t;
  exist_vars : Term.Set.t;
}

(* the engines read the variable sets per trigger: compute them once *)
let build name body head =
  let bv = Atom.vars_of_list body and hv = Atom.vars_of_list head in
  { name; body; head; body_vars = bv; head_vars = hv;
    frontier = Term.Set.inter bv hv; exist_vars = Term.Set.diff hv bv }

let counter = ref 0

let make ?name body head =
  if body = [] then invalid_arg "Rule.make: empty body";
  if head = [] then invalid_arg "Rule.make: empty head";
  let check atoms =
    List.iter
      (fun a ->
        List.iter
          (fun t ->
            if Term.is_null t then
              invalid_arg
                (Fmt.str "Rule.make: null %a in rule" Term.pp t))
          (Atom.args a))
      atoms
  in
  check body;
  check head;
  let name =
    match name with
    | Some n -> n
    | None ->
        incr counter;
        Fmt.str "r%d" !counter
  in
  build name body head

let name r = r.name
let body r = r.body
let head r = r.head
let body_vars r = r.body_vars
let head_vars r = r.head_vars
let frontier r = r.frontier
let exist_vars r = r.exist_vars
let is_datalog r = Term.Set.is_empty r.exist_vars

let rename ?name r =
  let renaming =
    (* name order: fresh names are assigned in a deterministic order,
       independent of intern-id order *)
    List.fold_left
      (fun acc x -> Subst.add x (Term.fresh_var ()) acc)
      Subst.empty
      (Term.sorted_elements (Term.Set.union r.body_vars r.head_vars))
  in
  build
    (Option.value name ~default:r.name)
    (Subst.apply_atoms renaming r.body)
    (Subst.apply_atoms renaming r.head)

let rename_apart r = rename r

let signature rules =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc a -> Symbol.Set.add (Atom.pred a) acc)
        acc (r.body @ r.head))
    Symbol.Set.empty rules

let split_datalog rules = List.partition is_datalog rules

let compare r r' =
  match String.compare r.name r'.name with
  | 0 -> (
      match List.compare Atom.compare r.body r'.body with
      | 0 -> List.compare Atom.compare r.head r'.head
      | c -> c)
  | c -> c

let equal r r' = compare r r' = 0

let pp ppf r =
  let ev = exist_vars r in
  if Term.Set.is_empty ev then
    Fmt.pf ppf "@[<hov 2>%s: %a ->@ %a@]" r.name Atom.pp_list r.body
      Atom.pp_list r.head
  else
    Fmt.pf ppf "@[<hov 2>%s: %a ->@ ∃%a. %a@]" r.name Atom.pp_list r.body
      Fmt.(list ~sep:comma Term.pp)
      (Term.sorted_elements ev) Atom.pp_list r.head

let pp_set ppf rules = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp) rules
