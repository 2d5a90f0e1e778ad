(** Named counters.

    Disabled by default; while disabled every recording call ({!add},
    {!incr}) is a single atomic flag read, so counter handles can live in
    hot modules at no measurable cost.

    Counters are interned by name: [counter "solver.branches"] returns
    the same underlying counter wherever it is called.  Counters are
    atomics, so concurrent domains accumulate exactly: no update is lost,
    and totals for a fixed amount of work are independent of how the work
    was interleaved or sharded over domains.  (Counts of work that itself
    depends on scheduling — e.g. boxes explored before a cancellation
    fires — can still legitimately differ between job counts.) *)

val enable : unit -> unit

val disable : unit -> unit

val reset : unit -> unit
(** Zero every registered counter (the registry itself persists). *)

type counter

val counter : string -> counter

val add : counter -> int -> unit

val incr : counter -> unit

val value : counter -> int
(** Current value (readable even while disabled). *)

val dump_counters : unit -> (string * int) list
(** All registered counters with values, sorted by name. *)
