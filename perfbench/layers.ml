(* Per-layer split of one benchmark workload, measured in process.

   Usage: layers.exe tournament RULES DEPTH
          layers.exe finite RULES FRESH
          layers.exe chase FILE DEPTH

   RULES names a built-in rule set. Each form does the work of the
   `nocliques` command of the same name (`finite` with `--forbid-loop
   --engine sat`, `chase` with `--print`), but calls each library's public
   functions directly and times every call (the finite-model search reads
   the program's own spans and histograms instead), so one run yields the
   time, allocation and counters of each layer: parse (nca_logic), chase and
   trigger enumeration (nca_chase, nca_plan), E-graph and tournament
   (nca_graph), grounding and solving (nca_sat) and rendering of the
   printed output. Prints one JSON object on stdout: the verdict the
   benchmark checks against its references, the timed layers' sum, and a
   flat map of metrics. Every metric is always present; a layer the
   workload does not use reads 0. *)

open Nca_logic
module Chase = Nca_chase.Chase
module Telemetry = Nca_obs.Telemetry

let metric_names =
  [
    "parser.parse_s"; "parser.minor_mw"; "intern.atoms"; "intern.names_kb";
    "chase.run_s"; "chase.minor_mw"; "trigger.enumerate_s"; "chase.apply_s";
    "chase.triggers"; "chase.atoms"; "chase.rounds"; "chase.useful_ratio";
    "plan.probes"; "plan.matches"; "plan.cache.miss"; "graph.e_graph_s";
    "graph.tournament_s"; "graph.minor_mw"; "graph.edges"; "sat.ground_s";
    "sat.solve_s"; "sat.vars"; "sat.clauses"; "sat.decisions";
    "sat.conflicts"; "sat.propagations"; "print.render_s"; "gc.top_heap_mb";
  ]

let metrics = Hashtbl.create 32
let set name v = Hashtbl.replace metrics name v
let () = List.iter (fun n -> set n 0.) metric_names

(* [timed f] is [f ()] with its wall time in seconds and the minor-heap
   words it allocated, in millions. *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (r, dt, (Gc.minor_words () -. w0) /. 1e6)

let counter snap name =
  float_of_int
    (Option.value ~default:0 (List.assoc_opt name snap.Telemetry.counters))

let load name =
  match List.find_opt (fun e -> e.Nca_core.Rulesets.name = name)
          Nca_core.Rulesets.zoo with
  | Some e -> (e.instance, e.rules)
  | None -> invalid_arg ("layers: no built-in rule set " ^ name)

let parse path =
  let (prog : Parser.program), dt, mw =
    timed (fun () ->
        let ic = open_in_bin path in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        Parser.parse_program text)
  in
  set "parser.parse_s" dt;
  set "parser.minor_mw" mw;
  prog

(* The chase, then a replay of its trigger enumeration: [Trigger.all_delta]
   over each computed level with the previous round's new atoms as delta,
   exactly the calls the chase's rounds made (plus the final, empty round
   of a saturated run). The replay is timed on its own; the rest of
   [chase.run_s] is dedup, instantiation and insertion. *)
let chase ~depth facts rules =
  let c, dt, mw =
    timed (fun () ->
        Chase.run ~max_depth:depth ~max_atoms:10_000_000 facts rules)
  in
  let snap = Telemetry.snapshot () in
  let triggers = counter snap "chase.triggers" in
  let atoms = Instance.cardinal c.Chase.instance in
  set "chase.run_s" dt;
  set "chase.minor_mw" mw;
  set "chase.triggers" triggers;
  set "chase.atoms" (float_of_int atoms);
  set "chase.rounds" (float_of_int c.depth);
  set "chase.useful_ratio"
    (if triggers > 0. then
       float_of_int (atoms - Instance.cardinal facts) /. triggers
     else 0.);
  List.iter
    (fun n -> set n (counter snap n))
    [ "plan.probes"; "plan.matches"; "plan.cache.miss" ];
  let replayed =
    if c.saturated then c.levels else List.rev (List.tl (List.rev c.levels))
  in
  (* the chase builds each delta from its trigger outputs; the replay
     computes them up front, outside the timed block *)
  let _, rounds =
    List.fold_left
      (fun (prev, acc) total ->
        (total, (total, Instance.diff total prev) :: acc))
      (Instance.empty, []) replayed
  in
  let (), enum_s, _ =
    timed (fun () ->
        List.iter
          (fun (total, delta) ->
            ignore (Nca_chase.Trigger.all_delta rules ~total ~delta))
          (List.rev rounds))
  in
  set "trigger.enumerate_s" enum_s;
  set "chase.apply_s" (dt -. enum_s);
  c

let render pp v =
  let s, dt, _ = timed (fun () -> Fmt.str "%a" pp v) in
  set "print.render_s" dt;
  String.length s

let tournament ~depth name =
  let facts, rules = load name in
  let e = Symbol.make "E" 2 in
  let c = chase ~depth facts rules in
  let g, g_s, g_mw = timed (fun () -> Chase.e_graph e c) in
  let t, t_s, t_mw = timed (fun () -> Nca_graph.Tournament.max_tournament g) in
  set "graph.e_graph_s" g_s;
  set "graph.tournament_s" t_s;
  set "graph.minor_mw" (g_mw +. t_mw);
  set "graph.edges"
    (float_of_int (Nca_graph.Digraph.Term_graph.num_edges g));
  let loop = Option.is_some (Chase.holds_at c (Cq.loop_query e)) in
  ignore (render Fmt.(list ~sep:comma Term.pp) t);
  [
    ("atoms", string_of_int (Instance.cardinal c.instance));
    ("tournament", string_of_int (List.length t));
    ("loop", string_of_bool loop);
  ]

(* The span [name], searched for depth-first in the span tree. *)
let rec find_span name spans =
  List.find_map
    (fun (s : Telemetry.span_stats) ->
      if s.span_name = name then Some s else find_span name s.children)
    spans

(* [Finite_model.search ~engine:Sat], the call the CLI makes. Its own
   instrumentation gives the split: the [finite_model.sat] span covers
   grounding and solving over all deepening rounds, the [sat.solve_us]
   histogram the solving alone, and [Nca_sat.Stats] the solvers'
   counters summed over the rounds. *)
let finite ~fresh name =
  let facts, rules = load name in
  let forbid = Cq.loop_query (Symbol.make "E" 2) in
  Nca_obs.Metrics.enable ();
  let outcome =
    Nca_chase.Finite_model.search ~engine:Sat ~fresh ~forbid facts rules
  in
  let verdict =
    match outcome with
    | Model _ -> "model"
    | No_model -> "no_model"
    | Exhausted _ -> "exhausted"
  in
  let us n = float_of_int n /. 1e6 in
  let sat_s =
    match find_span "finite_model.sat" (Telemetry.snapshot ()).spans with
    | Some s -> us s.time_us
    | None -> 0.
  in
  let solve_s =
    let histos = (Nca_obs.Metrics.snapshot ()).histos in
    match List.assoc_opt "sat.solve_us" histos with
    | Some h -> us (Nca_obs.Metrics.Histo.sum h)
    | None -> 0.
  in
  set "sat.ground_s" (sat_s -. solve_s);
  set "sat.solve_s" solve_s;
  let st = Nca_sat.Stats.snapshot () in
  List.iter
    (fun (n, v) -> set n (float_of_int v))
    [
      ("sat.vars", st.vars); ("sat.clauses", st.clauses);
      ("sat.decisions", st.decisions); ("sat.conflicts", st.conflicts);
      ("sat.propagations", st.propagations);
    ];
  ignore (render Fmt.string verdict);
  [ ("verdict", Printf.sprintf "%S" verdict) ]

let chase_print ~depth path =
  let prog = parse path in
  let c = chase ~depth prog.facts prog.rules in
  let n =
    render
      (fun ppf c ->
        Fmt.pf ppf "chase: %a@.%a@." Chase.pp_stats c Instance.pp c.instance)
      c
  in
  [
    ("atoms", string_of_int (Instance.cardinal c.instance));
    ("saturated", string_of_bool c.saturated);
    ("rendered_bytes", string_of_int n);
  ]

let () =
  Telemetry.enable ();
  let fields =
    match Array.to_list Sys.argv with
    | [ _; "tournament"; rules; depth ] ->
        tournament ~depth:(int_of_string depth) rules
    | [ _; "finite"; rules; fresh ] -> finite ~fresh:(int_of_string fresh) rules
    | [ _; "chase"; path; depth ] -> chase_print ~depth:(int_of_string depth) path
    | _ ->
        prerr_endline "usage: layers.exe (tournament|finite|chase) ARG N";
        exit 2
  in
  set "intern.atoms" (float_of_int (Atom.count ()));
  set "intern.names_kb" (float_of_int (Names.live_bytes ()) /. 1024.);
  set "gc.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.);
  (* the timed layers' sum, which run.py subtracts from the CLI's wall
     time for traced.gap_s *)
  let layers_s =
    List.fold_left
      (fun acc n -> acc +. Hashtbl.find metrics n)
      0.
      [
        "parser.parse_s"; "chase.run_s"; "graph.e_graph_s";
        "graph.tournament_s"; "sat.ground_s"; "sat.solve_s"; "print.render_s";
      ]
  in
  let field (k, v) = Printf.sprintf "%S: %s" k v in
  let metric n = Printf.sprintf "%S: %.9g" n (Hashtbl.find metrics n) in
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map field (("layers_s", Printf.sprintf "%.9g" layers_s) :: fields))
    ^ ", \"metrics\": {"
    ^ String.concat ", " (List.map metric metric_names)
    ^ "}}")
