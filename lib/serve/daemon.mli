(** The serve daemon: a long-lived, fault-isolated batch verification
    service over a Unix-domain socket.

    Architecture (one process, [1 + workers] domains):

    {v
    clients ──▶ listener domain ──▶ bounded queue ──▶ worker domains
                (accept, read        (backpressure:     (per-request
                 lines, parse,        full ⇒ shed        Budget.child,
                 answer pings,        response)          crash isolation,
                 shed/invalid)                           write response)
    v}

    Robustness invariants, enforced here and proven by [test/test_serve.ml]:

    - {b backpressure}: the queue is bounded; an accepted request is never
      dropped, an unacceptable one is answered [{"status":"shed"}]
      immediately — the daemon's memory is bounded by
      [queue_capacity + workers] requests.
    - {b crash isolation}: an exception anywhere in one request's handler
      becomes that request's [{"status":"error"}] response; the worker
      loops on, the daemon never exits.
    - {b per-request budgets}: every request runs under
      [Budget.child parent] — clamped to the serve-level deadline and
      cancelled wholesale when drain needs to time-box stragglers.
    - {b graceful drain}: {!request_drain} (wired to SIGTERM/SIGINT by the
      CLI) stops accepting and reading, lets queued and in-flight requests
      finish for [drain_grace] seconds, then fires the parent cancellation
      switch so the rest finish with structured timeouts; {!run} returns
      the aggregate {!stats} for the serve report and the process exits 0.

    The daemon itself is transport and scheduling only; verification lives
    in the pluggable {!handler} ({!Serve_handler.make} for the real one),
    which is what lets tests drive the loop with deterministic and faulty
    handlers. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains executing requests *)
  queue_capacity : int;  (** bounded queue size; overflow is shed *)
  max_line_bytes : int;  (** longer request lines are answered [invalid] *)
  default_timeout : float option;
      (** per-request budget when the request names none *)
  deadline : float option;
      (** serve-level lifetime in seconds; on expiry the daemon drains *)
  drain_grace : float;
      (** seconds drain waits for in-flight work before time-boxing it *)
}

val default_config : socket_path:string -> config
(** workers 2, queue capacity 64, max line 64 KiB, no timeouts, drain
    grace 5 s. *)

type handler = budget:Budget.t -> Protocol.verify_params -> string * (string * Obs.Json.t) list
(** [handler ~budget params] returns the response [status] and extra
    fields.  A handler may raise — the worker catches everything and
    answers [{"status":"error"}]. *)

type counts = {
  received : int;  (** complete request lines read *)
  ok : int;
  failed : int;
  timed_out : int;
  errors : int;  (** isolated crashes *)
  invalid : int;  (** protocol violations *)
  shed : int;  (** backpressure rejections *)
  pings : int;
  cache_hits : int;
  cache_misses : int;  (** store-backed requests that ran the engine *)
}

type stats = {
  counts : counts;
  queue_high_water : int;
  latencies : float list;
      (** enqueue → response seconds of every completed verify request *)
  uptime : float;
  timeboxed : bool;
      (** drain had to cancel stragglers instead of finishing cleanly *)
}

type control
(** Drain trigger, usable from a signal handler or another domain. *)

val control : unit -> control

val request_drain : control -> unit
(** Idempotent; safe from signal context and any domain. *)

val run : ?control:control -> handler:handler -> config -> stats
(** Bind the socket, serve until {!request_drain} or the serve deadline,
    drain, and return the aggregate stats.  Replaces a stale socket file;
    removes the socket on exit. *)

val serve_report :
  ?meta:(string * Obs.Json.t) list -> config -> stats -> Obs.Json.t
(** The serve-level report flushed on drain, in the
    [safebarrier.run_report] schema (so [report-validate] gates it):
    request/status counts, cache hit rate, queue high-water mark,
    p50/p99 latency, and drain cleanliness in [meta]; one [requests]
    stage summing completed-request latency against the daemon's uptime;
    plus any live {!Obs.Metrics} counters. *)
