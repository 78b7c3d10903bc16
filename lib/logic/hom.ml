module Telemetry = Nca_obs.Telemetry

(* ------------------------------------------------------------------ *)
(* Leapfrog intersection of id-sorted atom arrays *)

(* Smallest [j >= lo] with [Atom.id arr.(j) >= key], by galloping: double
   the step while still below, then binary-search the bracketed range. *)
let seek (arr : Atom.t array) lo key =
  let n = Array.length arr in
  if lo >= n || Atom.id arr.(lo) >= key then lo
  else begin
    let rec probe prev step =
      let j = lo + step in
      if j < n && Atom.id arr.(j) < key then probe j (step * 2)
      else (prev, min j n)
    in
    let l, r = probe lo 1 in
    let l = ref l and r = ref r in
    (* arr.(!l) < key; !r = n or arr.(!r) >= key *)
    while !r - !l > 1 do
      let m = (!l + !r) / 2 in
      if Atom.id arr.(m) < key then l := m else r := m
    done;
    !r
  end

exception Empty

(* Emit, in ascending id order, every atom present in all of [arrs]
   (each sorted by ascending id). [k >= 2]. *)
let leapfrog (arrs : Atom.t array array) emit =
  let k = Array.length arrs in
  let idx = Array.make k 0 in
  try
    Array.iter (fun a -> if Array.length a = 0 then raise Empty) arrs;
    let key = ref (Atom.id arrs.(0).(0)) in
    let agree = ref 1 in
    let i = ref 1 in
    while true do
      let ii = !i mod k in
      let a = arrs.(ii) in
      let j = seek a idx.(ii) !key in
      if j >= Array.length a then raise Empty;
      idx.(ii) <- j;
      let id = Atom.id a.(j) in
      if id = !key then begin
        incr agree;
        if !agree = k then begin
          emit a.(j);
          if j + 1 >= Array.length a then raise Empty;
          idx.(ii) <- j + 1;
          key := Atom.id a.(j + 1);
          agree := 1
        end
      end
      else begin
        key := id;
        agree := 1
      end;
      incr i
    done
  with Empty -> ()

(* ------------------------------------------------------------------ *)
(* The register machine *)

type counters = {
  mutable probes : int;  (* candidate atoms reaching the matcher *)
  mutable inters : int;  (* k-way (k >= 2) leapfrog intersections *)
  mutable matched : int;  (* full matches reported *)
}

let flush c =
  if Telemetry.enabled () then begin
    Telemetry.incr "plan.exec";
    Telemetry.count "plan.probes" c.probes;
    Telemetry.count "plan.intersections" c.inters;
    Telemetry.count "plan.matches" c.matched
  end;
  (* per-execution probe fan-out distribution, not just the total *)
  Nca_obs.Metrics.observe "plan.probe_fanout" c.probes

(* shared by every non-injective run; never written in that mode *)
let no_used : (int, unit) Hashtbl.t = Hashtbl.create 1

(* Run [plan] against per-goal [targets], extending [init], calling [f] on
   every full match. The root goal is picked by fewest candidates
   (Instance.candidate_count, first strict minimum in body order, early
   exit at 0) against the runtime registers, candidates are enumerated in
   ascending atom-id order, and argument positions are checked/bound left
   to right (the inj used-set grows in the same order) — for bodies of at
   most two atoms, the very order of the interpreted oracle. *)
let run ~inj ~init (plan : Plan.t) (targets : Instance.t array) f =
  let n = Array.length plan.body in
  if n = 0 then f init
  else begin
    let c = { probes = 0; inters = 0; matched = 0 } in
    let ns = Array.length plan.slot_terms in
    let vals = Array.copy plan.slot_terms in
    let set = Array.make ns false in
    Array.iteri
      (fun k t ->
        match Subst.find_opt t init with
        | Some v ->
            vals.(k) <- v;
            set.(k) <- true
        | None -> ())
      plan.slot_terms;
    let used = if inj then Hashtbl.create 16 else no_used in
    if inj then
      Term.Set.iter
        (fun t -> Hashtbl.replace used (Term.code t) ())
        (Subst.range init);
    (* The substitution under construction is maintained incrementally —
       one [Subst.add] per bind, shared across every match below it, and
       handing it to [f] costs nothing. The trail records, per bind, the
       slot and the map as it was, so backtracking is a pointer restore. *)
    let cur = ref init in
    let trail = Array.make (max 1 ns) 0 in
    let strail = Array.make (max 1 ns) init in
    let tn = ref 0 in
    let bind k v =
      vals.(k) <- v;
      set.(k) <- true;
      trail.(!tn) <- k;
      strail.(!tn) <- !cur;
      cur := Subst.add plan.slot_terms.(k) v !cur;
      incr tn;
      if inj then Hashtbl.replace used (Term.code v) ()
    in
    let undo mark =
      if !tn > mark then begin
        while !tn > mark do
          decr tn;
          let k = trail.(!tn) in
          set.(k) <- false;
          if inj then Hashtbl.remove used (Term.code vals.(k))
        done;
        cur := strail.(mark)
      end
    in
    (* Root scoring = Instance.candidate_count against the registers: the
       smallest posting over the fixed positions, defaulting to the
       predicate cardinal. *)
    let score g =
      let tgt = targets.(g) in
      let p = plan.preds.(g) in
      let best = ref (Instance.pred_cardinal p tgt) in
      Array.iteri
        (fun i a ->
          match a with
          | Plan.Const t -> best := min !best (Instance.pos_cardinal p i t tgt)
          | Plan.Slot k ->
              if set.(k) then
                best := min !best (Instance.pos_cardinal p i vals.(k) tgt))
        plan.args.(g);
      !best
    in
    let root = ref 0 in
    if n > 1 then begin
      (* single-goal bodies have one variant and nothing to score — the
         scoring cardinals are O(set size), so skip them entirely *)
      let best = ref (score 0) in
      let g = ref 1 in
      while !best > 0 && !g < n do
        let s = score !g in
        if s < !best then begin
          root := !g;
          best := s
        end;
        incr g
      done
    end;
    let order = plan.variants.(!root) in
    let rec step d =
      let g = order.(d) in
      let p = plan.preds.(g) in
      let tgt = targets.(g) in
      let ga = plan.args.(g) in
      let try_atom b =
        c.probes <- c.probes + 1;
        let mark = !tn in
        let rec go i bl =
          match bl with
          | [] -> true
          | bt :: rest ->
              (match ga.(i) with
              | Plan.Const t -> Term.equal t bt
              | Plan.Slot k ->
                  if set.(k) then Term.equal vals.(k) bt
                  else if inj && Hashtbl.mem used (Term.code bt) then false
                  else begin
                    bind k bt;
                    true
                  end)
              && go (i + 1) rest
        in
        if go 0 (Atom.args b) then
          if d + 1 = n then begin
            c.matched <- c.matched + 1;
            f !cur
          end
          else step (d + 1);
        undo mark
      in
      (* the postings of the positions fixed when the step starts: a
         constant, or a slot bound by [init] or an earlier step *)
      let postings = ref [] in
      for i = Array.length ga - 1 downto 0 do
        match ga.(i) with
        | Plan.Const t -> postings := Instance.posting p i t tgt :: !postings
        | Plan.Slot k ->
            if set.(k) then
              postings := Instance.posting p i vals.(k) tgt :: !postings
      done;
      match !postings with
      | [] -> Array.iter try_atom (Instance.pred_array p tgt)
      | [ arr ] -> Array.iter try_atom arr
      | arrs ->
          c.inters <- c.inters + 1;
          leapfrog (Array.of_list arrs) try_atom
    in
    (* not Fun.protect: its closures are a measurable share of a small search *)
    match step 0 with
    | () -> flush c
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        flush c;
        Printexc.raise_with_backtrace e bt
  end

(* ------------------------------------------------------------------ *)
(* Hom-shaped API *)

let iter ?(inj = false) ?(init = Subst.empty) src tgt f =
  let plan = Cache.find_or_compile ~stats:tgt src in
  run ~inj ~init plan (Array.make (Array.length plan.body) tgt) f

let iter_targets ?(init = Subst.empty) goals f =
  match goals with
  | [] -> f init
  | (_, tgt0) :: _ ->
      let plan = Cache.find_or_compile ~stats:tgt0 (List.map fst goals) in
      run ~inj:false ~init plan (Array.of_list (List.map snd goals)) f

exception Found of Subst.t

let find ?inj ?init src tgt =
  try
    iter ?inj ?init src tgt (fun s -> raise (Found s));
    None
  with Found s -> Some s

let exists ?inj ?init src tgt = Option.is_some (find ?inj ?init src tgt)

let all ?inj ?init src tgt =
  let acc = ref [] in
  iter ?inj ?init src tgt (fun s -> acc := s :: !acc);
  List.rev !acc

let count ?inj ?init src tgt =
  let m = ref 0 in
  iter ?inj ?init src tgt (fun _ -> incr m);
  !m

let maps_into a b = exists (Instance.atoms a) b
let hom_equiv a b = maps_into a b && maps_into b a

let isomorphic a b =
  Instance.cardinal a = Instance.cardinal b
  && exists ~inj:true (Instance.atoms a) b
