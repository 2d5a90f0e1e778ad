(** Resource budgets for the verification pipeline.

    Every unboundedly expensive stage — simulation, LP pivoting, δ-SAT
    branch-and-prune, CMA-ES generations — accepts a budget and checks it
    inside its hot loop.  A budget combines a wall-clock deadline, a shared
    branch/pivot pool, and a user cancellation hook.  Budget exhaustion is
    always surfaced as a *structured outcome* (a [stop]) at module
    boundaries; exceptions used internally never escape a stage. *)

type stop =
  | Deadline  (** the wall-clock deadline passed *)
  | Branch_budget  (** the shared branch/pivot pool ran dry *)
  | Cancelled  (** the cancellation hook returned [true] *)

type t
(** An immutable budget handle.  Sub-budgets share the parent's branch pool
    and cancellation hook, so work done under a sub-budget also draws down
    the parent.

    Budgets are domain-safe: the branch pool is an [Atomic.t], so any
    number of worker domains may {!consume_branches} from the same handle
    concurrently with exact accounting.  [cancel] hooks must themselves be
    domain-safe when a budget is shared across domains ({!switch} hooks
    are). *)

val unlimited : t
(** Never expires.  The default everywhere, preserving legacy behaviour. *)

val make : ?timeout:float -> ?branches:int -> ?cancel:(unit -> bool) -> unit -> t
(** [make ()] builds a budget from any combination of limits:
    [timeout] is relative seconds from now, kept as a deadline on the
    {e monotonic} {!Timing.now} scale; [branches] seeds a shared pool
    consumed via {!consume_branches}; [cancel] is polled on every
    {!check}.

    Because every deadline lives on the monotonic scale, a backwards jump
    of the system wall clock can neither expire a deadline early nor
    extend it: {!Timing.now} simply holds still until the raw clock
    catches up. *)

val with_timeout : float -> t
(** [with_timeout s] expires [s] seconds from now. *)

val sub_budget : ?fraction:float -> t -> t
(** A child budget: its deadline is the tighter of the parent's and
    [now + fraction × remaining parent time] (default fraction 1.0).
    Branch pool and cancellation hook are shared with the parent — never
    reset. *)

val child : ?timeout:float -> ?branches:int -> t -> t
(** [child ?timeout ?branches parent] — a per-request budget for serving:
    its deadline is the tighter of the parent's and [now + timeout], so a
    child can never outlive the parent; cancelling the parent (its hook or
    an enclosing {!with_switch}) cancels every child, while cancelling one
    child (wrap it in its own {!with_switch}) leaves siblings and the
    parent untouched.

    Unlike {!sub_budget}, [branches] seeds a {e fresh} pool private to the
    child: one runaway request exhausts its own pool, not the
    daemon's.  Without [branches] the parent's pool (if any) is shared,
    exactly as in {!sub_budget}. *)

val check : t -> stop option
(** [None] while the budget is live; the binding stop reason once any limit
    is hit.  Cheap enough for per-branch polling. *)

val expired : t -> bool
(** [check t <> None]. *)

val remaining : t -> float
(** Seconds until the deadline ([infinity] when there is none, [0.] once
    expired). *)

val remaining_branches : t -> int option
(** Branches left in the shared pool, if one was set. *)

val consume_branches : t -> int -> stop option
(** [consume_branches t n] draws [n] from the shared pool and then behaves
    like {!check}, except that [Branch_budget] is decided from this call's
    own draw: it is reported exactly when the pool held [n] or fewer
    branches before the draw, however other domains interleave.  So a
    pool of [b] grants exactly [b - 1] unit draws.  With no pool
    configured it is exactly [check t].  Allocates nothing. *)

val string_of_stop : stop -> string

(** {1 Cancellation switches}

    A one-shot, domain-safe cancellation flag for first-witness-wins
    parallel search: every sibling task runs under
    [with_switch sw budget]; whichever finds a witness fires the switch
    and the rest stop at their next budget poll with {!Cancelled}. *)

type switch

val switch : unit -> switch
(** A fresh, unfired switch. *)

val fire : switch -> unit
(** Trip the switch (idempotent, safe from any domain). *)

val fired : switch -> bool

val with_switch : switch -> t -> t
(** A budget that is additionally cancelled once the switch fires; the
    parent's deadline, branch pool, and cancellation hook still apply. *)
