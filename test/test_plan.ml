(* The compiled-plan executor behind Hom.

   Three families of guarantees:
   - the sorted posting arrays the leapfrog merge runs on are exactly the
     positional index, in ascending atom-id order (Instance invariant);
   - Hom agrees with the interpreted search kept in test/oracle: same
     match sets on random bodies/instances (plain, injective, seeded with
     an initial binding), and for bodies of at most two atoms the very
     same enumeration order;
   - the engines built on it (Trigger.all_delta, Datalog, Chase) agree
     with references built on the oracle, including under budgets: the
     same Exhausted verdicts, the same closures, the same chase results
     up to null names. *)

open Nca_logic
module Rulesets = Nca_core.Rulesets
module Trigger = Nca_chase.Trigger
module Chase = Nca_chase.Chase
module Datalog = Nca_chase.Datalog
module Exhausted = Nca_obs.Exhausted
module Oracle = Nca_oracle.Hom

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let e2 = Symbol.make "E" 2
let a1 = Symbol.make "A" 1
let b1 = Symbol.make "B" 1
let sign = Symbol.Set.of_list [ e2; a1; b1 ]

(* canonical form of a match: the bindings as (code, code) pairs in key
   order — total, and independent of the map's internal shape *)
let sub_key s =
  List.map (fun (x, t) -> (Term.code x, Term.code t)) (Subst.bindings s)

let keys subs = List.map sub_key subs
let norm subs = List.sort compare (keys subs)

(* ------------------------------------------------------------------ *)
(* Generators *)

let inst_gen =
  QCheck.Gen.(
    map
      (fun seed -> Rulesets.random_instance ~seed ~constants:4 ~atoms:8 sign)
      (int_range 0 10000))

let term_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Term.var (Fmt.str "v%d" (abs i mod 4))) int;
        map (fun i -> Term.cst (Fmt.str "c%d" (abs i mod 4))) int;
      ])

let atom_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun p ->
    match p with
    | 0 | 1 -> map2 (fun s t -> Atom.make e2 [ s; t ]) term_gen term_gen
    | 2 -> map (fun t -> Atom.make a1 [ t ]) term_gen
    | _ -> map (fun t -> Atom.make b1 [ t ]) term_gen)

let body_gen = QCheck.Gen.(list_size (int_range 1 4) atom_gen)

let search_arb = QCheck.make QCheck.Gen.(pair body_gen inst_gen)

let rules_sym_tc =
  Parser.parse_rules "sym: E(x,y) -> E(y,x). tc: E(x,y), E(y,z) -> E(x,z)."

(* ------------------------------------------------------------------ *)
(* Posting-array invariants *)

let args_at a i = List.nth (Atom.args a) i

let sorted_by_id arr =
  let ok = ref true in
  Array.iteri
    (fun j b -> if j > 0 then ok := !ok && Atom.id arr.(j - 1) < Atom.id b)
    arr;
  !ok

let prop_posting_invariant =
  QCheck.Test.make ~name:"posting arrays = positional index, id-sorted"
    ~count:100 (QCheck.make inst_gen) (fun inst ->
      (* exercise the per-record caches: a shrunk copy must rebuild its
         own arrays, not see the original's *)
      let shrunk =
        match Instance.atoms inst with
        | a :: _ -> Instance.remove a inst
        | [] -> inst
      in
      List.for_all
        (fun inst ->
          List.for_all
            (fun a ->
              let p = Atom.pred a in
              let parr = Instance.pred_array p inst in
              sorted_by_id parr
              && Array.to_list parr = Instance.with_pred p inst
              && List.for_all
                   (fun i ->
                     let t = args_at a i in
                     let arr = Instance.posting p i t inst in
                     sorted_by_id arr
                     && Instance.pos_cardinal p i t inst = Array.length arr
                     && Array.to_list arr
                        = List.filter
                            (fun b -> Term.equal (args_at b i) t)
                            (Instance.with_pred p inst))
                   (List.init (Symbol.arity p) Fun.id))
            (Instance.atoms inst))
        [ inst; shrunk ])

(* ------------------------------------------------------------------ *)
(* Differential: executor vs the interpreted oracle *)

let init01 =
  Subst.add (Term.var "v0") (Term.cst "c0") Subst.empty

let prop_same_matches =
  QCheck.Test.make ~name:"compiled ≡ interpreted: match sets" ~count:300
    search_arb (fun (body, inst) ->
      norm (Hom.all body inst) = norm (Oracle.all body inst))

let prop_same_matches_inj =
  QCheck.Test.make ~name:"compiled ≡ interpreted: injective match sets"
    ~count:300 search_arb (fun (body, inst) ->
      norm (Hom.all ~inj:true body inst)
      = norm (Oracle.all ~inj:true body inst))

let prop_same_matches_init =
  QCheck.Test.make ~name:"compiled ≡ interpreted: seeded match sets"
    ~count:300 search_arb (fun (body, inst) ->
      norm (Hom.all ~init:init01 body inst)
      = norm (Oracle.all ~init:init01 body inst))

let prop_same_order_small =
  QCheck.Test.make
    ~name:"compiled ≡ interpreted: enumeration order (≤ 2-atom bodies)"
    ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 1 2) atom_gen) inst_gen))
    (fun (body, inst) ->
      keys (Hom.all body inst) = keys (Oracle.all body inst)
      && keys (Hom.all ~inj:true body inst)
         = keys (Oracle.all ~inj:true body inst))

let test_empty_body () =
  let tgt = Parser.instance "E(a,b)" in
  check_int "one empty match" 1 (Hom.count [] tgt);
  check "exists" true (Hom.exists [] tgt);
  check "all = [empty]" true (Hom.all [] tgt = [ Subst.empty ])

(* ------------------------------------------------------------------ *)
(* Engines vs references built on the oracle *)

let split_delta inst =
  let _, delta =
    Instance.fold
      (fun a (i, acc) -> (i + 1, if i mod 2 = 0 then Instance.add a acc else acc))
      inst (0, Instance.empty)
  in
  delta

(* The oracle's homs of [rule]'s body into [total] whose image touches
   [delta]: the triggers a semi-naive round over ([total], [delta]) must
   enumerate, each once. *)
let oracle_delta rule ~total ~delta =
  List.filter
    (fun hom ->
      List.exists
        (fun a -> Instance.mem (Subst.apply_atom hom a) delta)
        (Rule.body rule))
    (Oracle.all (Rule.body rule) total)

let prop_all_delta_agree =
  QCheck.Test.make ~name:"Trigger.all_delta: compiled ≡ interpreted"
    ~count:100 (QCheck.make inst_gen) (fun total ->
      let delta = split_delta total in
      let oracle rule =
        List.map
          (fun hom -> Trigger.key { Trigger.rule; hom })
          (oracle_delta rule ~total ~delta)
      in
      let compiled = Trigger.all_delta rules_sym_tc ~total ~delta in
      let sort = List.sort Trigger.Key.compare in
      List.equal Trigger.Key.equal
        (sort (List.map Trigger.key compiled))
        (sort (List.concat_map oracle rules_sym_tc)))

let prop_datalog_agree =
  QCheck.Test.make ~name:"Datalog closure: compiled ≡ interpreted" ~count:50
    (QCheck.make inst_gen) (fun inst ->
      Instance.equal
        (Datalog.closure inst rules_sym_tc)
        (Nca_oracle.Naive.closure inst rules_sym_tc))

let linear_rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed -> Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 5000))

let resource = function
  | None -> None
  | Some (e : Exhausted.t) -> Some e.resource

(* Null numbering within one run is deterministic (trigger order), but the
   fresh-null counter is global, so two runs in one process disagree on the
   labels. Renumbering each instance's nulls from 0 in creation order makes
   runs with identical trigger sequences — which the single-atom-body rules
   of [linear_rules_arb] guarantee even across engines — structurally
   EQUAL, a far stronger check than isomorphism (and linear, where
   isomorphism search on null forests blows up). *)
let canon inst =
  let nulls =
    List.sort Int.compare
      (List.filter_map
         (function Term.Null n -> Some n | _ -> None)
         (Term.Set.elements (Instance.adom inst)))
  in
  let tbl = Hashtbl.create 16 in
  List.iteri (fun k n -> Hashtbl.add tbl n k) nulls;
  Instance.map_terms
    (function Term.Null n -> Term.Null (Hashtbl.find tbl n) | t -> t)
    inst

(* The level-by-level oblivious chase (Section 2.2) over the oracle:
   round [r] fires, in rule order and in the oracle's enumeration order,
   every trigger whose body image touches the atoms new at round [r - 1],
   creating its fresh nulls in name order. With single-atom bodies that
   is the order Chase.run consumes triggers in, so both number their
   nulls alike. It stops as Chase.run does: at level [max_depth], after
   the round that takes the instance past [max_atoms], or saturated at a
   round without triggers. *)
type oracle_run = {
  instance : Instance.t;
  depth : int;
  saturated : bool;
  stopped : Exhausted.resource option;
}

let oracle_chase ~max_depth ~max_atoms start rules =
  let fire acc (rule, hom) =
    let ext =
      List.fold_left
        (fun ext z -> Subst.add z (Term.fresh_null ()) ext)
        hom
        (Term.sorted_elements (Rule.exist_vars rule))
    in
    List.fold_left
      (fun (next, fresh) h ->
        let a = Subst.apply_atom ext h in
        if Instance.mem a next then (next, fresh)
        else (Instance.add a next, Instance.add a fresh))
      acc (Rule.head rule)
  in
  let rec go total delta depth =
    if depth >= max_depth then
      { instance = total; depth; saturated = false; stopped = Some Depth }
    else
      match
        List.concat_map
          (fun rule ->
            List.map (fun hom -> (rule, hom)) (oracle_delta rule ~total ~delta))
          rules
      with
      | [] -> { instance = total; depth; saturated = true; stopped = None }
      | triggers ->
          let next, fresh =
            List.fold_left fire (total, Instance.empty) triggers
          in
          if Instance.cardinal next > max_atoms then
            {
              instance = next;
              depth = depth + 1;
              saturated = false;
              stopped = Some Atoms;
            }
          else go next fresh (depth + 1)
  in
  go start start 0

let prop_chase_agree =
  QCheck.Test.make ~name:"chase: compiled ≡ interpreted (up to null names)"
    ~count:50 linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let i = Parser.instance "E(c0,c1), A(c0)" in
      let c = Chase.run ~max_depth:4 ~max_atoms:2000 i rules in
      let h = oracle_chase ~max_depth:4 ~max_atoms:2000 i rules in
      c.Chase.saturated = h.saturated
      && c.Chase.depth = h.depth
      && resource c.Chase.stopped = h.stopped
      && Instance.equal (canon c.Chase.instance) (canon h.instance))

let prop_budget_prefix_survives =
  QCheck.Test.make
    ~name:"budgeted chase: compiled run = prefix with the same verdict"
    ~count:30 linear_rules_arb (fun rules ->
      QCheck.assume (rules <> []);
      let i = Parser.instance "E(c0,c1), A(c0)" in
      let run depth = Chase.run ~max_depth:depth ~max_atoms:100000 i rules in
      let cut = run 2 and full = run 5 in
      let cut_o = oracle_chase ~max_depth:2 ~max_atoms:100000 i rules in
      resource cut.Chase.stopped = cut_o.stopped
      && Instance.equal (canon cut.Chase.instance) (canon cut_o.instance)
      && List.length cut.Chase.levels <= List.length full.Chase.levels
      && Instance.subset (canon cut.Chase.instance) (canon full.Chase.instance))

(* ------------------------------------------------------------------ *)
(* Plan shape and cache discipline *)

let tc_body =
  [
    Atom.make e2 [ Term.var "x"; Term.var "y" ];
    Atom.make e2 [ Term.var "y"; Term.var "z" ];
  ]

let test_plan_shape () =
  let plan = Plan.compile tc_body in
  check_int "three slots" 3 (Plan.nslots plan);
  check_int "two variants" 2 (Array.length plan.Plan.variants);
  Array.iteri
    (fun r order ->
      check_int "root first" r order.(0);
      check_int "permutation" 2 (Array.length order))
    plan.Plan.variants

let test_cache_discipline () =
  Cache.clear ();
  let p1 = Cache.find_or_compile tc_body in
  let p2 = Cache.find_or_compile tc_body in
  check "same plan shared" true (p1 == p2);
  let plans, hits, misses = Cache.stats () in
  check_int "one plan" 1 plans;
  check_int "one hit" 1 hits;
  check_int "one miss" 1 misses;
  Cache.clear ();
  check "cleared" true (Cache.stats () = (0, 0, 0))

(* ------------------------------------------------------------------ *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_posting_invariant;
      prop_same_matches;
      prop_same_matches_inj;
      prop_same_matches_init;
      prop_same_order_small;
      prop_all_delta_agree;
      prop_datalog_agree;
      prop_chase_agree;
      prop_budget_prefix_survives;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "plan"
    [
      ( "unit",
        [
          tc "empty body" `Quick test_empty_body;
          tc "plan shape" `Quick test_plan_shape;
          tc "cache discipline" `Quick test_cache_discipline;
        ] );
      ("properties", props);
    ]
