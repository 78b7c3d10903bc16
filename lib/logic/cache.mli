(** Memoized plans.

    Plans are compiled once per body and reused across every chase round,
    saturation stratum and containment check of the process — the cache
    seam a future serve mode reuses. The key is the list of hash-consed
    atom ids of the body: atom ids are globally unique and stable for the
    lifetime of the process, so two physically different rule values with
    the same interned body share one plan (this subsumes keying on
    interned rule ids — the body ids {e are} the interned identity of the
    join). *)

val find_or_compile : ?stats:Instance.t -> Atom.t list -> Plan.t
(** Look the body up, compiling (under a [plan.compile] telemetry span)
    on a miss. Hits and misses are counted as [plan.cache.hit] /
    [plan.cache.miss]. *)

val stats : unit -> int * int * int
(** [(plans, hits, misses)] since the last {!clear}. *)

val clear : unit -> unit
(** Drop every memoized plan and zero the hit/miss counters (tests). *)
