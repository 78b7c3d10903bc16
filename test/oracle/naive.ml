(* The naive Datalog fixpoint over the interpreted search: each round
   enumerates every trigger over the whole instance and adds its head
   atoms, until a round adds nothing. It shares no code with Trigger or
   the compiled plans, so it is an independent reference for the
   semi-naive engines. *)
let closure i rules =
  let rec go i =
    let next =
      List.fold_left
        (fun acc rule ->
          List.fold_left
            (fun acc hom ->
              List.fold_left
                (fun acc a -> Instance.add (Subst.apply_atom hom a) acc)
                acc (Rule.head rule))
            acc
            (Hom.all (Rule.body rule) i))
        i rules
    in
    if Instance.cardinal next = Instance.cardinal i then i else go next
  in
  go i
