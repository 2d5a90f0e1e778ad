(** Structured tracing: nested spans on the monotonic {!Timing.now} scale.

    Disabled by default.  While disabled, {!with_span} performs a single
    atomic flag read and calls the thunk directly — no allocation, no
    clock read — so instrumentation can stay compiled into hot paths.

    Each domain buffers its spans locally (no per-span locking); buffers
    merge into the global collector whenever a domain's span stack
    empties, which for [Pool.parallel_map] workers is the end of each
    task.  {!spans} therefore sees every span of a parallel stage once
    that stage has returned. *)

type span = {
  id : int;  (** unique within the process, assigned at open *)
  parent : int option;  (** enclosing span on the same domain *)
  name : string;
  t_start : float;  (** monotonic ({!Timing.now} scale) *)
  t_stop : float;
  domain : int;  (** domain the span ran on *)
}

val enable : unit -> unit

val disable : unit -> unit

val reset : unit -> unit
(** Drop all collected spans (current domain's buffer included). *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span.  The span closes (and is
    recorded) even when [f] raises.  When tracing is disabled this is
    [f ()] after one flag check. *)

val spans : unit -> span list
(** All completed spans, sorted by start time.  Spans still open are not
    included. *)

val duration : span -> float

val to_json : span list -> Json.t

val write_file : string -> unit
(** Write the collected spans as a versioned JSON trace file
    ([safebarrier.trace] schema, version 1). *)
