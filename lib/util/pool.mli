(** Fixed-size domain worker pool for the embarrassingly parallel stages
    of the pipeline (δ-SAT subbox search, seed-trace simulation).

    The pool is a process-global set of worker domains, spawned lazily on
    the first parallel call and joined at exit.  {!parallel_map} fans a
    batch of independent tasks out to at most [jobs] concurrent executors
    (the calling domain participates, so [jobs - 1] workers are recruited);
    nested calls are safe — a task that itself calls {!parallel_map} drains
    its own batch instead of blocking on a worker slot, so the pool can
    never deadlock on itself.

    Built on [Domain] + [Mutex]/[Condition] from the OCaml 5 standard
    library only; no external dependencies. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI's default for
    [--jobs]. *)

val parallel_map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f xs] is [Array.map f xs] computed by up to [jobs]
    domains.  Results are returned in input order regardless of completion
    order.  With [jobs <= 1] (or fewer than two elements) it runs
    sequentially in the calling domain — bit-identical to [Array.map].

    Every task runs to completion even when a sibling raises; the first
    exception observed is re-raised in the caller once the whole batch has
    finished, so no worker is ever left executing a stale task.  Tasks must
    not share unsynchronized mutable state; closures over [Atomic.t] /
    budgets are safe. *)

val queue_length : unit -> int
(** Batches currently enqueued (live, not yet retired).  Exhausted batches
    are removed by their drainers as soon as the task cursor crosses the
    batch length, so a healthy pool reads 0 here between calls; exposed so
    tests can assert the queue does not accumulate finished batches. *)
