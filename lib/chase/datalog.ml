open Nca_logic

exception Not_datalog of Rule.t

type exhausted = {
  err : Nca_obs.Exhausted.t;
  partial : Instance.t;
  rounds : int;
}

let check_datalog rules =
  List.iter
    (fun r -> if not (Rule.is_datalog r) then raise (Not_datalog r))
    rules

(* Unify one body atom against a concrete delta atom, seeding the
   substitution for the search over the remaining atoms. *)
let seed_with atom fact =
  if not (Symbol.equal (Atom.pred atom) (Atom.pred fact)) then None
  else if List.compare_lengths (Atom.args atom) (Atom.args fact) <> 0 then
    (* unreachable for well-formed atoms (the arity is part of the
       predicate), but malformed input must not escape as a bare
       [Invalid_argument] from [fold_left2] *)
    None
  else
    List.fold_left2
      (fun acc s t ->
        match acc with
        | None -> None
        | Some sub ->
            if not (Term.is_mappable s) then
              if Term.equal s t then acc else None
            else begin
              match Subst.find_opt s sub with
              | Some u -> if Term.equal u t then acc else None
              | None -> Some (Subst.add s t sub)
            end)
      (Some Subst.empty) (Atom.args atom) (Atom.args fact)

let ev_round = Nca_obs.Events.label "datalog.round.boundary"
let ev_stop = Nca_obs.Events.label "budget.stop"

(* Each round is one [Trigger.fire] that keeps every trigger: a join
   result derives its rule's head atoms, and those new to the round
   become the next delta. *)
let saturate_steps ?pool ~budget start rules =
  check_datalog rules;
  (* the gate carries deadline/cancellation into a round, from whichever
     domain joins; a tripped round is discarded and the prefix so far
     reported, the same shape a between-round stop produces *)
  let gate = Nca_obs.Budget.Gate.make budget in
  let rec go total delta n =
    if Instance.is_empty delta then Ok (total, n)
    else
      let stop =
        match Nca_obs.Budget.interrupted budget with
        | Some _ as e -> e
        | None -> (
            match Nca_obs.Budget.rounds budget ~used:n with
            | Some _ as e -> e
            | None ->
                Nca_obs.Budget.atoms budget ~used:(Instance.cardinal total))
      in
      match stop with
      | Some err ->
          Nca_obs.Events.instant ev_stop;
          Error { err; partial = total; rounds = n }
      | None -> (
          Nca_obs.Events.instant ev_round ~arg:n;
          let mt = Nca_obs.Metrics.enabled () in
          let t0 = if mt then Nca_obs.Events.now_us () else 0 in
          let round =
            Nca_obs.Telemetry.span "datalog.round" (fun () ->
                Trigger.fire ?pool ~gate ~keep:(fun _ -> true) ~round:(n + 1)
                  rules ~total ~delta)
          in
          if mt then
            Nca_obs.Metrics.observe "datalog.round_us"
              (Nca_obs.Events.now_us () - t0);
          match round with
          | Error err -> Error { err; partial = total; rounds = n }
          | Ok (_, next, fresh, _) ->
              Nca_obs.Telemetry.count "datalog.atoms"
                (Instance.cardinal fresh);
              go next fresh (n + 1))
  in
  Nca_obs.Telemetry.span "datalog.saturate" @@ fun () ->
  let result = go start start 0 in
  (match result with
  | Ok (_, n) -> Nca_obs.Telemetry.count "datalog.rounds" n
  | Error { rounds; _ } -> Nca_obs.Telemetry.count "datalog.rounds" rounds);
  result

let saturate ?max_rounds ?max_atoms ?(budget = Nca_obs.Budget.unlimited)
    ?pool start rules =
  (* Datalog closures are finite, so the structural defaults are generous
     safety valves rather than exploration bounds. *)
  let budget =
    Nca_obs.Budget.intersect budget
      (Nca_obs.Budget.v
         ~max_rounds:(Option.value ~default:10000 max_rounds)
         ~max_atoms:(Option.value ~default:1_000_000 max_atoms)
         ())
  in
  Result.map fst (saturate_steps ?pool ~budget start rules)

let closure ?pool start rules =
  match saturate_steps ?pool ~budget:Nca_obs.Budget.unlimited start rules with
  | Ok (total, _) -> total
  | Error _ -> assert false (* no bound to exhaust *)

let rounds_to_fixpoint start rules =
  match saturate_steps ~budget:Nca_obs.Budget.unlimited start rules with
  (* the final round derives nothing new *)
  | Ok (_, n) -> max 0 (n - 1)
  | Error _ -> assert false
