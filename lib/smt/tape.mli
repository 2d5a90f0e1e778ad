(** Compiled evaluation tapes: the back half of the
    [Expr.t → hash-consed DAG → flat SSA tape] pipeline.

    {!compile} interns a constraint's expression (and, optionally, its
    partial derivatives) into one {!Dag.t} pool, so every shared subterm —
    e.g. the [tanh(net_i)] of an exported neural controller, mentioned by
    the Lie derivative *and* re-derived inside each mean-value-form partial
    — becomes a single node, then flattens the pool into a topologically
    ordered instruction array.  Slots [0, hc4 limit) are exactly the
    distinct subterms of the atom; partial-derivative nodes follow and may
    reference atom slots (structural sharing across roots).

    A tape is immutable after compilation: all mutable evaluation state
    lives in a per-task {!buffers} value (preallocated unboxed float
    arrays), so one tape is safely shared across pool worker domains —
    the solver compiles each disjunct once per [solve] call instead of
    once per subbox task.

    Three interpreters run over the same tape:
    - {!eval_point}: float point evaluation (midpoint witness checks);
    - {!forward} / {!forward_all}: outward-rounded interval evaluation,
      identical enclosures to [Expr.ieval] over the atom and over each
      partial (same kernels, each shared node evaluated once);
    - {!revise}: HC4 forward–backward contraction where each shared node
      is contracted once with the *meet* of all its parents' requirements
      — sound, and at least as tight as a tree contractor (test_tape
      checks it against one, test/hc4.ml). *)

type t

type buffers

exception Empty_box
(** Raised by {!revise} when the constraint is infeasible in the current
    domains (the box can be pruned). *)

val compile : index_of:(string -> int) -> ?partials:Expr.t array -> Formula.atom -> t
(** [compile ~index_of ~partials atom] compiles [atom.expr ⋈ 0] against the
    variable ordering [index_of], together with the optional partial
    derivatives [partials] (one per variable, in variable order), which
    share every common subterm with the atom.  Thread-safe. *)

val compile_count : unit -> int
(** Cumulative number of {!compile} calls in this process (all domains) —
    lets tests assert the solver's compile-once-per-disjunct contract. *)

val node_count : t -> int
(** Total slots (atom + partials after CSE). *)

val atom_node_count : t -> int
(** Slots reachable from the atom root alone (the HC4 working set). *)

val n_partials : t -> int

val make_buffers : t -> buffers
(** Fresh per-task evaluation buffers (constant slots prefilled).  Buffers
    must not be shared across domains; the tape itself may. *)

val eval_point : t -> buffers -> float array -> float
(** [eval_point t b x] evaluates the atom's expression at the point [x]
    (indexed by variable); bit-identical to [Expr.eval]. *)

val forward : t -> buffers -> Interval.t array -> Interval.t
(** Interval forward sweep of the atom slots only; returns the enclosure of
    the atom's expression over [domains] (domains are not modified). *)

val forward_all : t -> buffers -> Interval.t array -> Interval.t
(** Like {!forward} but also evaluates the partial-derivative slots; their
    enclosures are then readable via {!partial_ival}. *)

val forward_partials : t -> buffers -> Interval.t array -> unit
(** [forward_partials t b domains] evaluates the partial-derivative slots
    only, reading the atom slots that a {!forward} (or the forward sweep
    of a {!revise}) of the same [domains] left in [b]: the two together are {!forward_all}, with no slot swept
    twice.  Their enclosures are then readable via {!partial_ival}. *)

val partial_ival : t -> buffers -> int -> Interval.t
(** Enclosure of partial [i] from the last {!forward_all}. *)

val atom_ival : t -> buffers -> Interval.t
(** The atom's enclosure from the last sweep over [b] of its slots, by
    {!forward}, {!forward_all} or {!revise}: no slot is swept again.  A
    {!revise} leaves the enclosure over the domains as they were before
    it narrowed them (its backward pass writes no forward slot). *)

val fmin : float -> float -> float
(** [Float.min] with no C call, bit for bit up to which NaN it returns;
    exported for test_tape's check of exactly that. *)

val fmax : float -> float -> float
(** [Float.max], likewise. *)

val revise : t -> buffers -> Interval.t array -> bool
(** One forward–backward pass.  Narrows [domains] in place; returns whether
    any domain changed; raises {!Empty_box} on infeasibility.  The backward
    sweep descends only through nodes their parents narrowed, which gives
    the same domains and the same {!Empty_box} outcome as full descent
    (DESIGN.md §5e).  Its forward sweep runs over the whole atom before
    anything is narrowed or raised, and {!atom_ival} reads it. *)
