module Telemetry = Nca_obs.Telemetry

let ev_miss = Nca_obs.Events.label "plan.cache.miss"

(* The memo table is global (plans are pure functions of the body's
   hash-consed atom ids) and shared by every domain, so lookups and
   insertions serialise on one mutex. The critical section includes the
   compile itself: concurrent first requests for the same body get one
   plan (the second waits), and since the table is hit once per body per
   round — the engines pass the same physically-shared bodies every
   time — the lock is far off the hot path. *)
let tbl : (int list, Plan.t) Hashtbl.t = Hashtbl.create 64
let hits = ref 0
let misses = ref 0
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find_or_compile ?stats body =
  let key = List.map Atom.id body in
  with_lock @@ fun () ->
  match Hashtbl.find_opt tbl key with
  | Some plan ->
      incr hits;
      Telemetry.incr "plan.cache.hit";
      plan
  | None ->
      incr misses;
      Telemetry.incr "plan.cache.miss";
      Nca_obs.Events.instant ev_miss;
      let plan =
        Telemetry.span "plan.compile" (fun () -> Plan.compile ?stats body)
      in
      Hashtbl.add tbl key plan;
      plan

let stats () = with_lock (fun () -> (Hashtbl.length tbl, !hits, !misses))

let clear () =
  with_lock (fun () ->
      Hashtbl.reset tbl;
      hits := 0;
      misses := 0)
