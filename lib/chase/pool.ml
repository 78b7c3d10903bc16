module Telemetry = Nca_obs.Telemetry
module Events = Nca_obs.Events
module Metrics = Nca_obs.Metrics

(* A fixed crew of worker domains executing indexed task batches.

   The coordinator publishes a batch (a task count and a closure) under
   the mutex and bumps a generation counter; workers woken by the
   condition variable claim task indices from a shared atomic counter
   until it runs dry, so load balances at task granularity with no
   per-task locking. The caller participates as slot 0 — a pool with
   [jobs = n] runs n-way on n domains total, and [jobs = 1] degenerates
   to a plain loop on the calling domain with no handoff at all.

   The barrier is exact: the coordinator waits until every participant
   has left the batch, so task effects (writes to distinct result
   cells) happen-before the coordinator reads them — ordinary mutex
   ordering, no racy publication.

   Determinism is the callers' job and the pool's shape makes it easy:
   results land in an array indexed by task, so merging "in task order"
   is just reading the array left to right, whatever interleaving
   actually executed the tasks.

   Observability: when the coordinator's telemetry store is live, each
   worker enables a private store for the batch (stores are
   domain-local), snapshots it at the barrier, and the coordinator
   absorbs the snapshots in slot order — counters and spans aggregate
   per-domain, then merge deterministically. *)

type slot = { mutable tasks : int; mutable busy_us : int }

type batch = {
  count : int;
  next : int Atomic.t;
  run : int -> unit;
  telemetry : bool;
  events : bool;
  metrics : bool;
}

type t = {
  jobs : int;
  lock : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable domains : unit Domain.t array;
  mutable batch : batch option;
  mutable gen : int;
  mutable active : int;
  mutable stop : bool;
  mutable batches : int;
  per_domain : slot array; (* slot 0 = the calling domain *)
  snaps : Telemetry.snapshot option array;
  ev_snaps : Events.snapshot option array;
  mt_snaps : Metrics.snapshot option array;
}

let jobs t = t.jobs

let now_us () = int_of_float (Unix.gettimeofday () *. 1_000_000.)
let ev_batch = Events.label "pool.batch"
let ev_participate = Events.label "pool.participate"

(* Claim and run tasks until the batch counter runs dry. Only the
   owning participant touches its [per_domain] slot, so the accounting
   needs no lock. Workers get modest private event rings per batch:
   enumeration tasks emit few events, and the coordinator absorbs the
   ring at the barrier anyway. *)
let participate t slot b =
  let t0 = now_us () in
  if slot > 0 then begin
    if b.telemetry then Telemetry.enable ();
    if b.events then Events.enable ~capacity:8192 ();
    if b.metrics then Metrics.enable ()
  end;
  let rec drain n =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.count then begin
      b.run i;
      drain (n + 1)
    end
    else n
  in
  let n = drain 0 in
  (* one instant per participant per batch, arg = tasks claimed: the
     trace shows how the batch actually split across domains *)
  Events.instant ev_participate ~arg:n;
  if slot > 0 then begin
    if b.telemetry then begin
      t.snaps.(slot) <- Some (Telemetry.snapshot ());
      Telemetry.disable ()
    end;
    if b.events then begin
      t.ev_snaps.(slot) <- Some (Events.snapshot ());
      Events.disable ()
    end;
    if b.metrics then begin
      t.mt_snaps.(slot) <- Some (Metrics.snapshot ());
      Metrics.disable ()
    end
  end;
  let s = t.per_domain.(slot) in
  s.tasks <- s.tasks + n;
  s.busy_us <- s.busy_us + (now_us () - t0)

let worker t slot () =
  let rec loop seen =
    Mutex.lock t.lock;
    while t.gen = seen && not t.stop do
      Condition.wait t.work t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      let gen = t.gen in
      let b = Option.get t.batch in
      Mutex.unlock t.lock;
      participate t slot b;
      Mutex.lock t.lock;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.lock;
      loop gen
    end
  in
  loop 0

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      domains = [||];
      batch = None;
      gen = 0;
      active = 0;
      stop = false;
      batches = 0;
      per_domain = Array.init jobs (fun _ -> { tasks = 0; busy_us = 0 });
      snaps = Array.make jobs None;
      ev_snaps = Array.make jobs None;
      mt_snaps = Array.make jobs None;
    }
  in
  t.domains <- Array.init (jobs - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

let map t n f =
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    (* The failure of the lowest task index wins (the exception the
       sequential loop would have raised); once any failure is recorded,
       unclaimed tasks are skipped so the batch drains fast. *)
    let failure : (int * exn) option Atomic.t = Atomic.make None in
    let rec record_failure i e =
      match Atomic.get failure with
      | Some (j, _) when j <= i -> ()
      | old ->
          if not (Atomic.compare_and_set failure old (Some (i, e))) then
            record_failure i e
    in
    let run i =
      if Option.is_none (Atomic.get failure) then
        match f i with
        | v -> results.(i) <- Some v
        | exception e -> record_failure i e
    in
    let b =
      {
        count = n;
        next = Atomic.make 0;
        run;
        telemetry = Telemetry.enabled ();
        events = Events.enabled ();
        metrics = Metrics.enabled ();
      }
    in
    Events.instant ev_batch ~arg:n;
    if t.jobs = 1 then begin
      t.batches <- t.batches + 1;
      participate t 0 b
    end
    else begin
      Mutex.lock t.lock;
      t.batch <- Some b;
      t.gen <- t.gen + 1;
      t.active <- t.jobs;
      t.batches <- t.batches + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.lock;
      participate t 0 b;
      Mutex.lock t.lock;
      t.active <- t.active - 1;
      while t.active > 0 do
        Condition.wait t.finished t.lock
      done;
      t.batch <- None;
      Mutex.unlock t.lock;
      if b.telemetry then
        Array.iteri
          (fun i s ->
            match s with
            | Some snap when i > 0 ->
                Telemetry.absorb snap;
                t.snaps.(i) <- None
            | _ -> ())
          t.snaps;
      (* worker events land on track [slot]: slot indices are stable
         run-to-run, unlike raw Domain ids *)
      if b.events then
        Array.iteri
          (fun i s ->
            match s with
            | Some snap when i > 0 ->
                Events.absorb ~tid:i snap;
                t.ev_snaps.(i) <- None
            | _ -> ())
          t.ev_snaps;
      if b.metrics then
        Array.iteri
          (fun i s ->
            match s with
            | Some snap when i > 0 ->
                Metrics.absorb snap;
                t.mt_snaps.(i) <- None
            | _ -> ())
          t.mt_snaps
    end;
    (match Atomic.get failure with
    | Some (_, e) -> raise e
    | None -> ());
    Array.map Option.get results
  end

type stats = { jobs : int; batches : int; per_domain : (int * int) list }

let stats (t : t) =
  {
    jobs = t.jobs;
    batches = t.batches;
    per_domain =
      Array.to_list
        (Array.map (fun (s : slot) -> (s.tasks, s.busy_us)) t.per_domain);
  }

(* The engines' one round runner. Without workers the consumer runs
   straight from the task: the sequential loop, no buffers. With workers
   each task fills its own buffer and the coordinator replays the
   buffers in task order — the order the sequential loop consumes in. A
   raising task propagates like [map]'s lowest failure; nothing is
   replayed then. *)
let iter_ordered t n task consume =
  match t with
  | Some (t : t) when t.jobs > 1 ->
      let buffers =
        map t n (fun i ->
            let acc = ref [] in
            task i (fun x -> acc := x :: !acc);
            List.rev !acc)
      in
      Array.iter (List.iter consume) buffers
  | _ ->
      for i = 0 to n - 1 do
        task i consume
      done

let with_pool ~jobs f =
  if jobs <= 1 then f None
  else begin
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f (Some t))
  end
