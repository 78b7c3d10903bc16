(** A fixed crew of worker domains executing indexed task batches.

    The parallel substrate of the chase and Datalog engines: the
    coordinator hands the pool a task count and a task function, worker
    domains claim indices from a shared atomic counter (task-granular
    load balancing, no per-task locks), and results land in an array
    indexed by task. Merging results "in task order" — the engines'
    determinism recipe — is then just reading that array left to right,
    whatever interleaving actually ran.

    The calling domain participates as slot 0, so [create ~jobs:n] runs
    [n]-way on [n] domains total ([n - 1] spawned). [jobs = 1] spawns
    nothing and {!map} degenerates to a plain loop.

    Telemetry-aware: when the caller's telemetry store is live, each
    worker records into a private domain-local store for the batch and
    the coordinator {!Telemetry.absorb}s the per-worker snapshots at
    the barrier, in slot order. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains. Raises
    [Invalid_argument] when [jobs < 1]. Callers must {!shutdown}. *)

val jobs : t -> int
(** The crew size, including the calling domain. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] computes [[| f 0; ...; f (n-1) |]], the calls
    distributed over the crew. [f] must be safe to call from any
    domain. If some call raises, the whole batch raises the exception
    of the lowest failing index after the barrier (remaining unclaimed
    tasks are skipped). *)

val shutdown : t -> unit
(** Stop and join the worker domains. The pool must not be used
    afterwards; idempotent. *)

val iter_ordered :
  t option -> int -> (int -> ('a -> unit) -> unit) -> ('a -> unit) -> unit
(** [iter_ordered pool n task consume] runs [task 0 emit], …,
    [task (n-1) emit] and hands every emitted value to [consume], task by
    task and, within a task, in emission order — the same sequence at
    any crew size. Without workers ([None] or [jobs = 1]) [emit] is
    [consume] itself and the tasks run in a plain loop with no buffering;
    with workers, tasks run across the crew, each into a private buffer
    that the calling domain replays in task order after the barrier, so
    only [task] must be safe to call from any domain. An exception from
    a task propagates as from {!map} (the lowest failing index), and
    with workers no buffer is replayed then. *)

val with_pool : jobs:int -> (t option -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f (Some pool)] with a fresh pool and
    shuts it down afterwards (also on exceptions) — or [f None] when
    [jobs <= 1]. Engines take the option as is: {!iter_ordered} runs
    [None] as the same loop as a one-domain pool. *)

(** {1 Accounting} *)

type stats = {
  jobs : int;
  batches : int;  (** batches executed *)
  per_domain : (int * int) list;
      (** per-domain [(tasks, busy_us)], slot 0 first (the caller) *)
}

val stats : t -> stats
