(* CLI regression: a wall-clock budget holds inside a chase round at any
   --jobs.  `chase example1_bdd -d 8 --timeout 2` finishes its first
   seven rounds (278k triggers) in about a second on a 2-core x86 host,
   so the deadline falls inside the eighth round, which enumerates ~16M
   triggers and runs for more than a minute when nothing checks the
   deadline there.  At -j 1 and -j 2 the run must exit 3, report
   `stopped:wall-clock`, and do so well within the slack.  The depth
   reached depends on timing and is not pinned.

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
let run_chase exe jobs =
  let out = Filename.temp_file "cli_budget" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let args =
    [| exe; "chase"; "example1_bdd"; "-d"; "8"; "--timeout"; "2"; "-j";
       string_of_int jobs |]
  in
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

let () =
  let exe = Sys.argv.(1) in
  let failed = ref false in
  List.iter
    (fun jobs ->
      let status, elapsed, stdout = run_chase exe jobs in
      let problem =
        match status with
        | None -> Some (Printf.sprintf "still running after %.0f s" slack_s)
        | Some (Unix.WEXITED 3) when contains stdout "stopped:wall-clock" ->
            None
        | Some (Unix.WEXITED 3) -> Some "exit 3 without stopped:wall-clock"
        | Some (Unix.WEXITED c) -> Some (Printf.sprintf "exit %d, expected 3" c)
        | Some _ -> Some "killed by a signal"
      in
      match problem with
      | None ->
          Printf.printf "-j %d: exit 3, stopped:wall-clock, %.2f s\n" jobs
            elapsed
      | Some msg ->
          failed := true;
          Printf.printf "-j %d: FAIL: %s (%.2f s)\n%s" jobs msg elapsed stdout)
    [ 1; 2 ];
  if !failed then exit 1
