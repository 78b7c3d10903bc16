(* Parallel-equivalence suite (@par-smoke): the multi-domain engines
   must be indistinguishable from the sequential ones.  Workers only
   enumerate (no atoms, no nulls), results merge in task order, so a
   parallel chase produces exactly the run the sequential engine would
   have produced from the same process state.  Cross-process
   byte-identity is pinned by the chase.jobs3.out golden in test/dune;
   here the comparisons are in-process, which needs two accommodations
   spelled out at [chase_equal] and [warmed]. *)

open Nca_logic
module Chase = Nca_chase.Chase
module Datalog = Nca_chase.Datalog
module Pool = Nca_chase.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:3 @@ function
  | None -> Alcotest.fail "expected a pool at jobs=3"
  | Some p ->
      check_int "crew size" 3 (Pool.jobs p);
      let r = Pool.map p 100 (fun i -> i * i) in
      check_int "length" 100 (Array.length r);
      Array.iteri (fun i v -> check_int "task-order results" (i * i) v) r

let test_pool_sequential_is_none () =
  Pool.with_pool ~jobs:1 @@ function
  | None -> ()
  | Some _ -> Alcotest.fail "jobs=1 must not build a pool"

let test_pool_lowest_failure_wins () =
  Pool.with_pool ~jobs:4 @@ function
  | None -> Alcotest.fail "expected a pool"
  | Some p -> (
      match
        Pool.map p 32 (fun i ->
            if i = 2 || i = 5 then failwith (Printf.sprintf "t%d" i) else i)
      with
      | _ -> Alcotest.fail "expected the batch to raise"
      | exception Failure msg ->
          Alcotest.(check string) "lowest failing index" "t2" msg)

let test_pool_stats_account_tasks () =
  Pool.with_pool ~jobs:3 @@ function
  | None -> Alcotest.fail "expected a pool"
  | Some p ->
      ignore (Pool.map p 40 (fun i -> i) : int array);
      ignore (Pool.map p 17 (fun i -> i) : int array);
      let s = Pool.stats p in
      check_int "batches" 2 s.Pool.batches;
      check_int "slots" 3 (List.length s.Pool.per_domain);
      check_int "every task accounted" 57
        (List.fold_left (fun acc (t, _) -> acc + t) 0 s.Pool.per_domain)

let test_gate_trips_on_step_budget () =
  let b = Nca_obs.Budget.v ~max_steps:100 () in
  let g = Nca_obs.Budget.Gate.make ~period:16 b in
  let tripped = ref false in
  for _ = 1 to 200 do
    if Nca_obs.Budget.Gate.step g then tripped := true
  done;
  check "gate tripped past the step budget" true !tripped;
  check "verdict is steps" true
    (match Nca_obs.Budget.Gate.tripped g with
    | Some e -> e.Nca_obs.Exhausted.resource = Nca_obs.Exhausted.Steps
    | None -> false);
  (* post-trip steps short-circuit without counting, so the total sits
     between the budget and the trip checkpoint, short of 200 *)
  let taken = Nca_obs.Budget.Gate.steps_taken g in
  check "counted up to the tripping checkpoint" true
    (taken >= 100 && taken < 200)

(* ------------------------------------------------------------------ *)
(* Engine equivalence *)

(* In one process the global null counter keeps running, so a rerun of
   the same chase shifts every null id.  The determinism claim —
   parallel creates the very same nulls in the very same order —
   therefore shows up in-process as equality modulo the order-preserving
   renaming of nulls: sort structurally, rename nulls by first
   occurrence, compare atom lists. *)
let renamer () =
  let tbl = Hashtbl.create 16 in
  fun t ->
    if Term.is_null t then (
      match Hashtbl.find_opt tbl t with
      | Some c -> c
      | None ->
          let c = Term.cst (Printf.sprintf "!n%d" (Hashtbl.length tbl)) in
          Hashtbl.add tbl t c;
          c)
    else t

let canon rename inst =
  List.map (Atom.map rename)
    (List.sort Atom.compare_structural (Instance.atoms inst))

let chase_equal (a : Chase.t) (b : Chase.t) =
  let ra = renamer () and rb = renamer () in
  a.depth = b.depth
  && a.saturated = b.saturated
  && List.length a.levels = List.length b.levels
  && List.for_all2
       (fun x y -> List.equal Atom.equal (canon ra x) (canon rb y))
       a.levels b.levels
  && List.equal Atom.equal (canon ra a.instance) (canon rb b.instance)
  && Term.Set.cardinal (Chase.invented a)
     = Term.Set.cardinal (Chase.invented b)

(* Trigger enumeration iterates instances in hash-cons id order, so a
   run that re-derives a constant-only atom first interned by an
   EARLIER run sees it at an old (small) id and enumerates its round
   delta in a different order — different null numbering, same
   instance up to isomorphism.  That is a property of the sequential
   engine (two back-to-back sequential runs disagree the same way),
   not of the pool; a single throwaway run pins every constant-only
   atom the chase can derive, after which enumeration order is stable
   and reruns at any jobs count are identical up to the null shift. *)
let warmed run =
  ignore (run ());
  run ()

let par_chase ~jobs i rules =
  Pool.with_pool ~jobs (fun pool -> Chase.run ~max_depth:3 ?pool i rules)

let rules_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun seed ->
          Nca_core.Rulesets.random_forward_existential_rules ~seed ~rules:4)
        (int_range 0 10000))

let prop_chase_byte_identical =
  QCheck.Test.make ~name:"chase identical at jobs in {2,3,4}" ~count:15
    rules_arb (fun rules ->
      let i = Parser.instance "E(c0,c1), A(c0), B(c1)" in
      let seq = warmed (fun () -> Chase.run ~max_depth:3 i rules) in
      List.for_all
        (fun jobs -> chase_equal seq (par_chase ~jobs i rules))
        [ 2; 3; 4 ])

(* Random edge sets for the Datalog closure comparison. *)
let edge_instance_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun pairs ->
          Instance.of_list
            (List.map
               (fun (s, t) ->
                 Atom.app "E"
                   [
                     Term.cst (Printf.sprintf "c%d" (abs s mod 5));
                     Term.cst (Printf.sprintf "c%d" (abs t mod 5));
                   ])
               pairs))
        (list_size (int_range 0 12) (pair int int)))

let closure_rules =
  Parser.parse_rules
    {| tc: E(x,y), E(y,z) -> E(x,z).
       sym: E(x,y) -> E(y,x).
       mark: E(x,y) -> A(x). |}

let prop_closure_set_equal =
  QCheck.Test.make ~name:"datalog closure set-equal at jobs in {2,3,4}"
    ~count:15 edge_instance_arb (fun i ->
      let seq = Datalog.closure i closure_rules in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              Instance.equal seq (Datalog.closure ?pool i closure_rules)))
        [ 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Seeded stress: many small runs, 2-8 domains, fixed seeds so a
   failure replays.  Each rep chases a fresh random forward-existential
   set and diffs against the sequential run. *)

let test_stress_multi_domain () =
  for rep = 0 to 49 do
    let jobs = 2 + (rep mod 7) in
    let rules =
      Nca_core.Rulesets.random_forward_existential_rules ~seed:(1000 + rep)
        ~rules:4
    in
    let i = Parser.instance "E(c0,c1), A(c0)" in
    let seq = warmed (fun () -> Chase.run ~max_depth:3 i rules) in
    if not (chase_equal seq (par_chase ~jobs i rules)) then
      Alcotest.failf "rep %d (jobs=%d, seed=%d): parallel chase diverged" rep
        jobs (1000 + rep)
  done

let test_stress_shared_pool () =
  (* one pool reused across many batches, checking reuse is as safe as
     the fresh-pool-per-run pattern above *)
  Pool.with_pool ~jobs:4 @@ function
  | None -> Alcotest.fail "expected a pool"
  | Some _ as pool ->
      for rep = 0 to 19 do
        let rules =
          Nca_core.Rulesets.random_forward_existential_rules
            ~seed:(2000 + rep) ~rules:3
        in
        let i = Parser.instance "E(c0,c1), B(c1)" in
        let seq = warmed (fun () -> Chase.run ~max_depth:3 i rules) in
        if not (chase_equal seq (Chase.run ~max_depth:3 ?pool i rules)) then
          Alcotest.failf "rep %d: shared-pool chase diverged" rep
      done

(* ------------------------------------------------------------------ *)
(* Budget parity: a cancellation callback that fires on its k-th
   consultation stops the run at the same point with no pool and at jobs
   2-4.  The callback is consulted before each round and, through the
   budget gate, every 4096 enumerated triggers / join results inside a
   round, in both modes; a round the gate stops is discarded, so every
   mode reports the same round-boundary prefix. *)

let cancel_budget k =
  let consulted = Atomic.make 0 in
  Nca_obs.Budget.v
    ~cancel:(fun () -> Atomic.fetch_and_add consulted 1 >= k - 1)
    ()

let cancelled = function
  | Some e -> e.Nca_obs.Exhausted.resource = Nca_obs.Exhausted.Cancelled
  | None -> false

(* A stopped run discards its last round whole: with the fact-level
   store on, every recorded fact must be in the returned instance, and
   every timestamped or null-provenance term must be a term of it. *)
module Provenance = Nca_provenance.Provenance

let with_provenance run =
  Provenance.enable ();
  Fun.protect ~finally:Provenance.disable (fun () ->
      let r = run () in
      (r, Provenance.fold (fun fact _ acc -> fact :: acc) []))

let no_trace_of_discarded_round label inst store =
  check (label ^ ": every stored fact is in the result") true
    (List.for_all (fun a -> Instance.mem a inst) store)

let chase_maps_within label (c : Chase.t) =
  let terms = Chase.terms c in
  let within m = Term.Map.for_all (fun t _ -> Term.Set.mem t terms) m in
  check (label ^ ": timestamps within the result") true (within c.timestamps);
  check (label ^ ": null provenance within the result") true
    (within c.provenance)

let test_cancel_parity_chase () =
  let e = Nca_core.Rulesets.example1_bdd in
  (* depth 7 has eight round heads; k = 40 can only fire inside a round *)
  List.iter
    (fun k ->
      let run pool =
        with_provenance (fun () ->
            Chase.run ~max_depth:7 ~budget:(cancel_budget k) ?pool
              e.Nca_core.Rulesets.instance e.Nca_core.Rulesets.rules)
      in
      let seq, store = warmed (fun () -> run None) in
      let label = Printf.sprintf "k=%d" k in
      check (label ^ ": cancelled without a pool") true
        (cancelled seq.Chase.stopped);
      no_trace_of_discarded_round label seq.Chase.instance store;
      chase_maps_within label seq;
      if k = 40 then
        check "k=40 stops inside round 7" true (seq.Chase.depth < 7);
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let par, store = run pool in
              let label = Printf.sprintf "k=%d jobs=%d" k jobs in
              check (label ^ ": same prefix") true
                (chase_equal seq par && cancelled par.Chase.stopped);
              no_trace_of_discarded_round label par.Chase.instance store;
              chase_maps_within label par))
        [ 2; 3; 4 ])
    [ 7; 9; 40 ]

let test_cancel_parity_datalog () =
  let chain =
    Instance.of_list
      (List.init 80 (fun i ->
           Atom.app "E"
             [
               Term.cst (Printf.sprintf "c%d" i);
               Term.cst (Printf.sprintf "c%d" (i + 1));
             ]))
  in
  let rules = Parser.parse_rules "tc: E(x,y), E(y,z) -> E(x,z)." in
  (* the unbudgeted closure consults the callback 28 times, 8 of them at
     round heads *)
  List.iter
    (fun k ->
      let run pool =
        with_provenance (fun () ->
            Datalog.saturate ~budget:(cancel_budget k) ?pool chain rules)
      in
      match run None with
      | Ok _, _ -> Alcotest.failf "k=%d: expected a cancelled closure" k
      | Error seq, store ->
          check (Printf.sprintf "k=%d: cancelled without a pool" k) true
            (cancelled (Some seq.Datalog.err));
          no_trace_of_discarded_round (Printf.sprintf "k=%d" k)
            seq.Datalog.partial store;
          List.iter
            (fun jobs ->
              Pool.with_pool ~jobs (fun pool ->
                  match run pool with
                  | Ok _, _ ->
                      Alcotest.failf "k=%d jobs=%d: not cancelled" k jobs
                  | Error par, store ->
                      let label = Printf.sprintf "k=%d jobs=%d" k jobs in
                      check (label ^ ": same prefix") true
                        (cancelled (Some par.Datalog.err)
                        && par.Datalog.rounds = seq.Datalog.rounds
                        && Instance.equal par.Datalog.partial
                             seq.Datalog.partial);
                      no_trace_of_discarded_round label par.Datalog.partial
                        store))
            [ 2; 3; 4 ])
    [ 3; 12; 25 ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_chase_byte_identical; prop_closure_set_equal ]

let tc name fn = Alcotest.test_case name `Quick fn

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          tc "map preserves task order" test_pool_map_order;
          tc "jobs=1 is sequential" test_pool_sequential_is_none;
          tc "lowest failure wins" test_pool_lowest_failure_wins;
          tc "stats account every task" test_pool_stats_account_tasks;
          tc "gate trips on step budget" test_gate_trips_on_step_budget;
        ] );
      ("equivalence", props);
      ( "budget",
        [
          tc "chase: k-th cancel, same prefix at jobs 1-4"
            test_cancel_parity_chase;
          tc "datalog: k-th cancel, same prefix at jobs 1-4"
            test_cancel_parity_datalog;
        ] );
      ( "stress",
        [
          tc "50 seeded reps, 2-8 domains" test_stress_multi_domain;
          tc "shared pool across runs" test_stress_shared_pool;
        ] );
    ]
