open Nca_logic

type provenance = {
  rule : Rule.t;
  hom : Subst.t;
  extension : Subst.t;
  level : int;
}

type t = {
  instance : Instance.t;
  levels : Instance.t list;
  depth : int;
  saturated : bool;
  stopped : Nca_obs.Exhausted.t option;
  timestamps : int Term.Map.t;
  provenance : provenance Term.Map.t;
}

let stamp_terms level terms stamps =
  Term.Set.fold
    (fun t acc ->
      if Term.Map.mem t acc then acc else Term.Map.add t level acc)
    terms stamps

type variant = Oblivious | Semi_oblivious | Restricted

let satisfied tr inst =
  let rule = tr.Trigger.rule in
  let init = Subst.restrict (Rule.frontier rule) tr.Trigger.hom in
  Hom.exists ~init (Rule.head rule) inst

module Keytbl = Hashtbl.Make (Trigger.Key)

(* timeline labels, interned once at load so tracing never re-hashes *)
let ev_round = Nca_obs.Events.label "chase.round.boundary"
let ev_stop = Nca_obs.Events.label "budget.stop"

(* Delta-driven: each round only enumerates the triggers whose body uses
   an atom created in the previous round ([Trigger.fire]); triggers
   entirely over older levels were enumerated when their last atom
   appeared, so every trigger is enumerated exactly once over the run and
   the oblivious and restricted chases need no record of fired triggers.
   The first round runs with [delta = start], i.e. every trigger over the
   input. *)
let run ?(variant = Oblivious) ?max_depth ?max_atoms
    ?(budget = Nca_obs.Budget.unlimited) ?pool start rules =
  (* one governor for every bound: the legacy [max_depth]/[max_atoms]
     arguments and the caller's budget intersect to the tighter value *)
  let budget =
    Nca_obs.Budget.intersect budget
      (Nca_obs.Budget.v
         ~max_depth:(Option.value ~default:8 max_depth)
         ~max_atoms:(Option.value ~default:20000 max_atoms)
         ())
  in
  (* the gate carries deadline/cancellation into a round, from whichever
     domain enumerates; a tripped round is discarded, so the reported
     prefix is a valid round boundary *)
  let gate = Nca_obs.Budget.Gate.make budget in
  (* the variant's trigger filter, given the start-of-round instance *)
  let keep =
    match variant with
    | Oblivious -> fun _ _ -> true
    | Semi_oblivious ->
        (* triggers that agree on the frontier image merge: the one
           variant that needs a record across rounds *)
        let fired = Keytbl.create 256 in
        fun _ tr ->
          let k = Trigger.frontier_key tr in
          if Keytbl.mem fired k then false
          else begin
            Keytbl.add fired k ();
            true
          end
    | Restricted -> fun current tr -> not (satisfied tr current)
  in
  let rec go current delta levels_rev level stamps prov =
    let stop =
      match Nca_obs.Budget.interrupted budget with
      | Some _ as e -> e
      | None -> Nca_obs.Budget.depth budget ~used:level
    in
    match stop with
    | Some _ ->
        Nca_obs.Events.instant ev_stop;
        finish current levels_rev stamps prov ~saturated:false ~stopped:stop
    | None -> (
        Nca_obs.Events.instant ev_round ~arg:level;
        let mt = Nca_obs.Metrics.enabled () in
        let t0 = if mt then Nca_obs.Events.now_us () else 0 in
        let round =
          Nca_obs.Telemetry.span "chase.round" @@ fun () ->
          match
            Trigger.fire ?pool ~gate ~keep:(keep current) ~round:(level + 1)
              rules ~total:current ~delta
          with
          | Error err -> `Stopped err
          | Ok (0, _, _, _) -> `Saturated
          | Ok (fired, next, delta', derivations) ->
              (* every fresh null and every first-seen head constant occurs
                 in a new atom, so the round's new atoms carry all of its
                 timestamps and per-null provenance *)
              let prov =
                List.fold_left
                  (fun prov { Trigger.trigger; ext; _ } ->
                    let p =
                      { rule = trigger.rule; hom = trigger.hom;
                        extension = ext; level = level + 1 }
                    in
                    Term.Set.fold
                      (fun z acc -> Term.Map.add (Subst.apply ext z) p acc)
                      (Rule.exist_vars trigger.rule) prov)
                  prov derivations
              in
              let stamps =
                stamp_terms (level + 1) (Instance.adom delta') stamps
              in
              Nca_obs.Telemetry.count "chase.triggers" fired;
              Nca_obs.Telemetry.count "chase.atoms" (Instance.cardinal delta');
              Nca_obs.Metrics.observe "chase.trigger_batch" fired;
              `Round (next, delta', stamps, prov)
        in
        if mt then
          Nca_obs.Metrics.observe "chase.round_us"
            (Nca_obs.Events.now_us () - t0);
        match round with
        | `Stopped err ->
            finish current levels_rev stamps prov ~saturated:false
              ~stopped:(Some err)
        | `Saturated ->
            finish current levels_rev stamps prov ~saturated:true
              ~stopped:None
        | `Round (next, delta', stamps, prov) -> (
            match
              Nca_obs.Budget.atoms budget ~used:(Instance.cardinal next)
            with
            | Some _ as stop ->
                finish next (next :: levels_rev) stamps prov ~saturated:false
                  ~stopped:stop
            | None ->
                go next delta' (next :: levels_rev) (level + 1) stamps prov))
  and finish instance levels_rev stamps prov ~saturated ~stopped =
    let levels = List.rev levels_rev in
    Nca_obs.Telemetry.count "chase.rounds" (List.length levels - 1);
    {
      instance;
      levels;
      depth = List.length levels - 1;
      saturated;
      stopped;
      timestamps = stamps;
      provenance = prov;
    }
  in
  let stamps = stamp_terms 0 (Instance.adom start) Term.Map.empty in
  Nca_obs.Telemetry.span "chase" @@ fun () ->
  go start start [ start ] 0 stamps Term.Map.empty

let level c k =
  let k = max 0 k in
  let rec nth i = function
    | [] -> c.instance
    | [ last ] -> last
    | x :: rest -> if i = k then x else nth (i + 1) rest
  in
  nth 0 c.levels

let timestamp c t = Term.Map.find_opt t c.timestamps

let timestamp_multiset c terms =
  Nca_graph.Multiset.Int_multiset.of_list
    (List.filter_map (timestamp c) (Term.Set.elements terms))

let terms c = Instance.adom c.instance

let invented c =
  match c.levels with
  | [] -> Term.Set.empty
  | start :: _ -> Term.Set.diff (terms c) (Instance.adom start)

let entails ?tuple c q = Cq.holds ?tuple c.instance q

let holds_at c q =
  let rec go k = function
    | [] -> None
    | l :: rest -> if Cq.holds l q then Some k else go (k + 1) rest
  in
  go 0 c.levels

let e_graph e c = Nca_graph.Digraph.of_instance e c.instance

(* A depth-stop is the requested exploration bound, not an anomaly, so it
   stays silent as in the seed; an atoms-stop keeps the seed's
   " truncated" byte-for-byte; only the new (wall-clock/cancel) verdicts
   print their resource. *)
let pp_stop ppf = function
  | None -> ()
  | Some e -> (
      match e.Nca_obs.Exhausted.resource with
      | Nca_obs.Exhausted.Depth -> ()
      | Nca_obs.Exhausted.Atoms -> Fmt.string ppf " truncated"
      | _ -> Fmt.pf ppf " stopped:%s" (Nca_obs.Exhausted.tag e))

let pp_stats ppf c =
  Fmt.pf ppf "depth=%d atoms=%d terms=%d%s%a" c.depth
    (Instance.cardinal c.instance)
    (Term.Set.cardinal (terms c))
    (if c.saturated then " saturated" else "")
    pp_stop c.stopped
