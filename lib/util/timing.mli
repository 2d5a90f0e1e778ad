(** Timing of pipeline stages, and the clock behind {!Budget} deadlines.

    Two clocks are exposed.  {!now} is the {e monotonic} pipeline clock:
    its origin is the Unix epoch but its value never decreases within a
    process, even if the underlying wall clock is stepped backwards (NTP
    adjustment, manual reset).  Every duration measurement and every
    deadline in {!Budget} is on the [now] scale, so a backwards wall-clock
    jump can neither instantly expire nor indefinitely extend a deadline.
    {!wall} is the raw wall clock, for human-facing timestamps in reports
    only — never compare it against [now]-scale deadlines. *)

val now : unit -> float
(** Monotonic seconds with sub-millisecond resolution.  Epoch-anchored on
    first use; guaranteed never to decrease across the whole process
    (domain-safe).  After a backwards step of the raw clock, [now] holds
    its last value until the raw clock catches up. *)

val wall : unit -> float
(** Raw wall-clock seconds since the epoch ([Unix.gettimeofday]).  May
    jump in either direction; for display/report timestamps only. *)

val set_clock_for_tests : (unit -> float) option -> unit
(** Replace ([Some f]) or restore ([None]) the raw clock source behind
    {!now}, and re-anchor the monotonic cursor.  Strictly for fault
    injection in tests — simulated backwards jumps must not trip
    {!Budget} deadlines.  Not for production use. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    monotonic seconds (always [>= 0]). *)
