(* Tests for the evaluation engines: semi-naive Datalog saturation,
   CQ/UCQ containment and minimization, and the empirical Theorem-7
   (Ramsey) checker. *)

open Nca_logic
module Datalog = Nca_chase.Datalog
module Chase = Nca_chase.Chase
module Containment = Nca_rewriting.Containment
module Ramsey_check = Nca_graph.Ramsey_check
module Rulesets = Nca_core.Rulesets

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let e s t = Atom.app "E" [ s; t ]

(* ------------------------------------------------------------------ *)
(* Datalog saturation *)

let test_datalog_transitive_closure () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Parser.instance "E(a,b), E(b,c), E(c,d)" in
  let closure = Datalog.closure i rules in
  (* 3 base + ac, bd, ad *)
  check_int "full transitive closure" 6 (Instance.cardinal closure);
  check "ad derived" true
    (Instance.mem (Atom.app "E" [ Term.cst "a"; Term.cst "d" ]) closure)

let test_datalog_rejects_existentials () =
  let rules = Parser.parse_rules "s: E(x,y) -> E(y,z)." in
  check "existential rejected" true
    (try
       ignore (Datalog.closure Instance.empty rules);
       false
     with Datalog.Not_datalog _ -> true)

(* The independent oracle: both engines run their rounds through
   [Trigger.fire] on the compiled search, so they are checked against a
   naive fixpoint over the interpreted search instead of only against
   each other. *)
let engines_agree_with_naive i rules ~max_depth ~max_atoms =
  let naive = Nca_oracle.Naive.closure i rules in
  let semi = Datalog.closure i rules in
  let chase = Chase.run ~max_depth ~max_atoms i rules in
  chase.saturated
  && Instance.equal naive semi
  && Instance.equal naive chase.instance

let test_datalog_agrees_with_chase () =
  List.iter
    (fun (rules_src, facts) ->
      check
        (Fmt.str "engines agree with the naive fixpoint on %s" facts)
        true
        (engines_agree_with_naive (Parser.instance facts)
           (Parser.parse_rules rules_src) ~max_depth:20 ~max_atoms:20000))
    [
      ("tc: E(x,y), E(y,z) -> E(x,z).", "E(a,b), E(b,c), E(c,a)");
      ("sym: E(x,y) -> E(y,x).", "E(a,b), E(c,d)");
      ("p1: A(x) -> B(x). p2: B(x) -> C(x).", "A(a), A(b)");
      ( "short: E(x,x1), E(y,y1) -> E(x,y1).",
        "E(a,b), E(c,d)" );
    ]

let test_datalog_rounds () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let chain n =
    Instance.of_list
      (List.init n (fun i ->
           Atom.app "E"
             [ Term.cst (Fmt.str "c%d" i); Term.cst (Fmt.str "c%d" (i + 1)) ]))
  in
  (* transitive closure of a chain of 8 needs ~log rounds (semi-naive
     joins deltas with the full relation, so paths double each round) *)
  let rounds = Datalog.rounds_to_fixpoint (chain 8) rules in
  check "few rounds" true (rounds >= 2 && rounds <= 5);
  check_int "closure size" 36
    (Instance.cardinal (Datalog.closure (chain 8) rules))

let test_datalog_empty_delta_terminates () =
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  let i = Parser.instance "E(a,b)" in
  check_int "nothing to derive" 1 (Instance.cardinal (Datalog.closure i rules))

let test_datalog_lemma33_decomposition () =
  (* Ch(Ch(R∃), R^DL) computed with the Datalog engine agrees with the
     generic chase on the Datalog part *)
  let entry = Rulesets.example1_bdd in
  let datalog, existential = Rule.split_datalog entry.rules in
  let ex = Chase.run ~max_depth:4 entry.instance existential in
  let via_engine = Datalog.closure ex.instance datalog in
  let via_chase = Chase.run ~max_depth:10 ex.instance datalog in
  check "saturated" true via_chase.saturated;
  check "engines agree on the DL closure" true
    (Instance.equal via_engine via_chase.instance)

(* ------------------------------------------------------------------ *)
(* Containment *)

let test_containment_basic () =
  let edge = Cq.boolean [ e x y ] in
  let path2 = Cq.boolean [ e x y; e y z ] in
  check "path2 ⊑ edge" true (Containment.contained path2 edge);
  check "edge ⋢ path2" false (Containment.contained edge path2)

let test_containment_with_answers () =
  let q1 = Cq.make ~answer:[ x ] [ e x y ] in
  let q2 = Cq.make ~answer:[ x ] [ e x y; e x z ] in
  check "q2 ⊑ q1" true (Containment.contained q2 q1);
  check "equivalent (z-copy redundant)" true (Containment.equivalent q1 q2)

let test_canonical_database () =
  let q = Cq.make ~answer:[ x ] [ e x y ] in
  let db, tuple = Containment.canonical_database q in
  check_int "frozen body" 1 (Instance.cardinal db);
  check "frozen answers are constants" true (List.for_all Term.is_cst tuple);
  (* Chandra–Merlin: q' contains q iff q' holds on q's canonical db *)
  let q' = Cq.rename_apart (Cq.make ~answer:[ x ] [ e x y ]) in
  check "holds on canonical db" true (Cq.holds ~tuple db q')

let test_minimize () =
  let q = Cq.make ~answer:[ x ] [ e x y; e x z ] in
  let m = Containment.minimize q in
  check_int "one atom suffices" 1 (Cq.size m);
  check "equivalent" true (Containment.equivalent q m);
  check "minimal" true (Containment.is_minimal m);
  check "original not minimal" false (Containment.is_minimal q)

let test_minimize_keeps_necessary_atoms () =
  let q = Cq.make ~answer:[ x; z ] [ e x y; e y z ] in
  let m = Containment.minimize q in
  check_int "path needed in full" 2 (Cq.size m)

let test_ucq_containment () =
  let u1 = Ucq.make [ Cq.boolean [ e x x ] ] in
  let u2 = Ucq.make [ Cq.boolean [ e x y ] ] in
  check "loop ⊑ edge (as UCQs)" true (Containment.ucq_contained u1 u2);
  check "edge ⋢ loop" false (Containment.ucq_contained u2 u1);
  let u3 = Ucq.make [ Cq.boolean [ e x y ]; Cq.boolean [ e x x ] ] in
  check "u3 ≡ u2" true (Containment.ucq_equivalent u3 u2)

let test_minimize_ucq () =
  let u =
    Ucq.make
      [
        Cq.boolean [ e x y; e x z ];
        (* minimizes to one atom *)
        Cq.boolean [ e x x ];
        (* then contained in the first *)
      ]
  in
  let m = Containment.minimize_ucq u in
  check_int "single minimal disjunct" 1 (Ucq.size m);
  check_int "of one atom" 1 (Cq.size (List.hd (Ucq.disjuncts m)))

(* ------------------------------------------------------------------ *)
(* Empirical Theorem 7 *)

let test_random_tournament_is_tournament () =
  let g = Ramsey_check.random_tournament ~seed:5 ~size:7 in
  check_int "7 vertices" 7 (Nca_graph.Digraph.Term_graph.num_vertices g);
  check_int "binomial edges" 21 (Nca_graph.Digraph.Term_graph.num_edges g);
  check "is a tournament" true
    (Nca_graph.Tournament.is_tournament
       (Nca_graph.Digraph.Term_graph.vertices g)
       g)

let test_random_coloring_covers_edges () =
  let g = Ramsey_check.random_tournament ~seed:5 ~size:6 in
  let colored = Ramsey_check.random_coloring ~seed:11 ~colors:2 g in
  check_int "every edge colored" 15 (List.length colored);
  check "colors in range" true
    (List.for_all (fun (_, c) -> c = 0 || c = 1) colored)

let test_theorem7_two_colors () =
  (* any 2-coloring of a 6-tournament has a monochromatic 3-tournament *)
  check "Theorem 7 at R(3,3)=6" true
    (Ramsey_check.check_theorem7 ~seed:0 ~colors:2 ~target:3 ~trials:25)

let test_theorem7_below_threshold_can_fail () =
  (* below the Ramsey number a coloring avoiding the target exists; the
     classical witness is the 2-colored K5 — find a failing coloring *)
  let rec exists_failure seed =
    if seed > 500 then false
    else
      let t = Ramsey_check.random_tournament ~seed ~size:5 in
      let colored = Ramsey_check.random_coloring ~seed:(seed * 31) ~colors:2 t in
      match Ramsey_check.monochromatic_tournament colored ~size:3 with
      | None -> true
      | Some _ -> exists_failure (seed + 1)
  in
  check "size 5 admits a mono-free coloring" true (exists_failure 0)

let test_monochromatic_extraction () =
  let g = Ramsey_check.random_tournament ~seed:1 ~size:6 in
  let colored = List.map (fun e -> (e, 0)) (Nca_graph.Digraph.Term_graph.edges g) in
  (* everything one color: the whole tournament is monochromatic *)
  match Ramsey_check.monochromatic_tournament colored ~size:6 with
  | Some (0, t) -> check_int "all six" 6 (List.length t)
  | _ -> Alcotest.fail "expected the full tournament in color 0"

(* ------------------------------------------------------------------ *)
(* qcheck *)

let cq_gen =
  QCheck.Gen.(
    let term = map (fun i -> Term.var (Printf.sprintf "v%d" (abs i mod 4))) int in
    let atom = map2 (fun s t -> e s t) term term in
    map
      (fun atoms ->
        match atoms with
        | [] -> Cq.boolean [ e x y ]
        | _ -> Cq.boolean atoms)
      (list_size (int_range 1 4) atom))

let prop_containment_reflexive =
  QCheck.Test.make ~name:"containment reflexive" ~count:100 (QCheck.make cq_gen)
    (fun q -> Containment.contained q q)

let prop_minimize_equivalent =
  QCheck.Test.make ~name:"minimize preserves equivalence" ~count:100
    (QCheck.make cq_gen) (fun q ->
      let m = Containment.minimize q in
      Containment.equivalent q m && Cq.size m <= Cq.size q)

let prop_datalog_chase_agree =
  QCheck.Test.make ~name:"semi-naive ≡ chase on random datalog" ~count:25
    (QCheck.make
       QCheck.Gen.(
         map
           (fun seed ->
             Nca_core.Rulesets.random_instance ~seed ~constants:4 ~atoms:6
               (Symbol.Set.singleton (Symbol.make "E" 2)))
           (int_range 0 5000)))
    (fun i ->
      let rules =
        Parser.parse_rules "sym: E(x,y) -> E(y,x). tc: E(x,y), E(y,z) -> E(x,z)."
      in
      engines_agree_with_naive i rules ~max_depth:30 ~max_atoms:100000)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_containment_reflexive; prop_minimize_equivalent;
      prop_datalog_chase_agree ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "engines"
    [
      ( "datalog",
        [
          tc "transitive closure" test_datalog_transitive_closure;
          tc "rejects existentials" test_datalog_rejects_existentials;
          tc "agrees with chase" test_datalog_agrees_with_chase;
          tc "rounds" test_datalog_rounds;
          tc "trivial" test_datalog_empty_delta_terminates;
          tc "lemma 33 decomposition" test_datalog_lemma33_decomposition;
        ] );
      ( "containment",
        [
          tc "basic" test_containment_basic;
          tc "with answers" test_containment_with_answers;
          tc "canonical database" test_canonical_database;
          tc "minimize" test_minimize;
          tc "necessary atoms" test_minimize_keeps_necessary_atoms;
          tc "ucq containment" test_ucq_containment;
          tc "minimize ucq" test_minimize_ucq;
        ] );
      ( "ramsey-empirical",
        [
          tc "random tournament" test_random_tournament_is_tournament;
          tc "random coloring" test_random_coloring_covers_edges;
          tc "theorem 7 at threshold" test_theorem7_two_colors;
          tc "below threshold" test_theorem7_below_threshold_can_fail;
          tc "monochromatic extraction" test_monochromatic_extraction;
        ] );
      ("qcheck", props);
    ]
