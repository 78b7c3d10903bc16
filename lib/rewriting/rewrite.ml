open Nca_logic

type outcome = {
  ucq : Ucq.t;
  rounds : int;
  complete : bool;
  stopped : Nca_obs.Exhausted.t option;
  generated : int;
}

let dedup_body q =
  Cq.make ~answer:(Cq.answer q)
    (List.sort_uniq Atom.compare_structural (Cq.body q))

let rewrite_ucq ?max_rounds ?max_disjuncts ?(minimize = true)
    ?(budget = Nca_obs.Budget.unlimited) rules start =
  let budget =
    Nca_obs.Budget.intersect budget
      (Nca_obs.Budget.v
         ~max_rounds:(Option.value ~default:12 max_rounds)
         ~max_disjuncts:(Option.value ~default:2000 max_disjuncts)
         ())
  in
  let generated = ref 0 in
  let rec go all frontier round =
    let stop =
      match Nca_obs.Budget.interrupted budget with
      | Some _ as e -> e
      | None -> (
          match Nca_obs.Budget.rounds_reached budget ~used:round with
          | Some _ as e -> e
          | None ->
              Nca_obs.Budget.disjuncts budget ~used:(List.length all))
    in
    match stop with
    | Some _ ->
        { ucq = Ucq.cover (Ucq.make all); rounds = round; complete = false;
          stopped = stop; generated = !generated }
    | None ->
      let produced =
        Nca_obs.Telemetry.span "rewrite.round" @@ fun () ->
        List.concat_map
          (fun q ->
            List.map dedup_body (Piece.rewrite_step_all rules q))
          frontier
      in
      generated := !generated + List.length produced;
      Nca_obs.Telemetry.count "rewrite.generated" (List.length produced);
      (* Keep only CQs not subsumed by anything already known. *)
      let fresh =
        if minimize then
          List.fold_left
            (fun fresh q ->
              let subsumed_by q' = Cq.subsumes q' q in
              if List.exists subsumed_by all || List.exists subsumed_by fresh
              then fresh
              else q :: fresh)
            [] produced
          |> List.rev
        else begin
          (* ablation mode: keep everything that is not an isomorphic copy
             of a known disjunct (no subsumption-based minimization) *)
          let iso q q' =
            List.length (Cq.answer q) = List.length (Cq.answer q')
            && Cq.size q = Cq.size q'
            &&
            let init =
              List.fold_left2
                (fun acc x y ->
                  match acc with
                  | None -> None
                  | Some s -> (
                      match Subst.find_opt x s with
                      | Some y' -> if Term.equal y y' then acc else None
                      | None -> Some (Subst.add x y s)))
                (Some Subst.empty) (Cq.answer q) (Cq.answer q')
            in
            match init with
            | None -> false
            | Some init ->
                let tgt = Instance.of_list (Cq.body q') in
                Instance.cardinal (Instance.of_list (Cq.body q))
                = Instance.cardinal tgt
                && Hom.exists ~inj:true ~init (Cq.body q) tgt
          in
          List.fold_left
            (fun fresh q ->
              if List.exists (iso q) all || List.exists (iso q) fresh then
                fresh
              else q :: fresh)
            [] produced
          |> List.rev
        end
      in
      match Nca_obs.Budget.steps budget ~used:!generated with
      | Some _ as stop ->
          (* the CQs of the over-full round are kept: the cover minimizes *)
          { ucq = Ucq.cover (Ucq.make (all @ fresh)); rounds = round;
            complete = false; stopped = stop; generated = !generated }
      | None ->
          if fresh = [] then
            { ucq = Ucq.cover (Ucq.make all); rounds = round;
              complete = true; stopped = None; generated = !generated }
          else go (all @ fresh) fresh (round + 1)
  in
  Nca_obs.Telemetry.span "rewrite" @@ fun () ->
  let start_disjuncts = List.map dedup_body (Ucq.disjuncts start) in
  go start_disjuncts start_disjuncts 0

let rewrite ?max_rounds ?max_disjuncts ?minimize ?budget rules q =
  rewrite_ucq ?max_rounds ?max_disjuncts ?minimize ?budget rules (Ucq.of_cq q)

let sound_for chase base outcome =
  List.for_all
    (fun q ->
      (not (Cq.holds base q))
      || Cq.holds chase.Nca_chase.Chase.instance q)
    (Ucq.disjuncts outcome.ucq)
