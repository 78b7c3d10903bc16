(* CLI regression: a wall-clock budget holds inside a chase round at any
   --jobs.  `chase example1_bdd -d 8 --timeout 2` finishes its first
   seven rounds (278k triggers) in about a second on a 2-core x86 host,
   so the deadline falls inside the eighth round, which enumerates ~16M
   triggers and runs for more than a minute when nothing checks the
   deadline there.  At -j 1 and -j 2 the run must exit 3, report
   `stopped:wall-clock`, and do so well within the slack.  The depth
   reached depends on timing and is not pinned.

   The same run at -j 1 with --stats-json must also keep the major heap
   (`memory."gc.heap_words".max`) under 16M words: a round is streamed,
   so a stopped round holds its new atoms, not its triggers.  This is
   not asserted at -j 2, where the pool still buffers a whole round of
   triggers before they are consumed.

   Usage: test_cli_budget.exe PATH/TO/nocliques.exe *)

let slack_s = 10.

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Run the binary with stdout to a file, polling for exit so a run past
   the slack is killed and reported instead of hanging the suite. *)
let run_chase ?(extra = [||]) exe jobs =
  let out = Filename.temp_file "cli_budget" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let args =
    [| exe; "chase"; "example1_bdd"; "-d"; "8"; "--timeout"; "2"; "-j";
       string_of_int jobs |]
  in
  let args = Array.append args extra in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe args Unix.stdin fd null in
  Unix.close fd;
  Unix.close null;
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. t0 > slack_s ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | 0, _ ->
        Unix.sleepf 0.02;
        wait ()
    | _, status -> Some status
  in
  let status = wait () in
  let elapsed = Unix.gettimeofday () -. t0 in
  let stdout = read_file out in
  Sys.remove out;
  (status, elapsed, stdout)

let max_heap_words = 16_000_000

(* The [max] of the [gc.heap_words] gauge in a --stats-json document. *)
let heap_words_max json =
  let key = "\"gc.heap_words\":{\"last\":" in
  let n = String.length json and m = String.length key in
  let rec find i =
    if i + m > n then None
    else if String.sub json i m = key then
      Scanf.sscanf_opt (String.sub json (i + m) (n - i - m))
        "%d,\"max\":%d" (fun _ mx -> mx)
    else find (i + 1)
  in
  find 0

let stop_problem status stdout =
  match status with
  | None -> Some (Printf.sprintf "still running after %.0f s" slack_s)
  | Some (Unix.WEXITED 3) when contains stdout "stopped:wall-clock" -> None
  | Some (Unix.WEXITED 3) -> Some "exit 3 without stopped:wall-clock"
  | Some (Unix.WEXITED c) -> Some (Printf.sprintf "exit %d, expected 3" c)
  | Some _ -> Some "killed by a signal"

let () =
  let exe = Sys.argv.(1) in
  let failed = ref false in
  let report label problem elapsed stdout =
    match problem with
    | None -> Printf.printf "%s, %.2f s\n" label elapsed
    | Some msg ->
        failed := true;
        Printf.printf "%s: FAIL: %s (%.2f s)\n%s" label msg elapsed stdout
  in
  List.iter
    (fun jobs ->
      let status, elapsed, stdout = run_chase exe jobs in
      report
        (Printf.sprintf "-j %d: exit 3, stopped:wall-clock" jobs)
        (stop_problem status stdout) elapsed stdout)
    [ 1; 2 ];
  (let status, elapsed, stdout =
     run_chase ~extra:[| "--stats-json" |] exe 1
   in
   let heap = heap_words_max stdout in
   let problem =
     match (stop_problem status stdout, heap) with
     | (Some _ as p), _ -> p
     | None, None -> Some "no gc.heap_words gauge in --stats-json"
     | None, Some w when w > max_heap_words ->
         Some (Printf.sprintf "major heap above %d words" max_heap_words)
     | None, Some _ -> None
   in
   report
     (Printf.sprintf "-j 1 --stats-json: major heap peak %d words"
        (Option.value heap ~default:0))
     problem elapsed "");
  if !failed then exit 1
