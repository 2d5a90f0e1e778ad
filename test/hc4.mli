(** HC4-revise: forward–backward interval contraction for one constraint.

    Forward evaluation annotates every node of the expression tree with an
    interval enclosure; backward propagation intersects each node with the
    preimage implied by its parent and narrows the variable domains.  Only
    points that cannot satisfy the constraint are ever removed (soundness of
    UNSAT answers relies on this).

    A test oracle, not part of the solver: the tape's contractor
    ([Tape.revise]) must keep every solution this tree contractor keeps
    and be at least as tight (test_tape), and test_smt checks its own
    projections (zero products, cube roots at 1e30). *)

type compiled
(** A constraint [e ⋈ 0] compiled against a variable ordering. *)

exception Empty_box
(** Raised by {!revise} when the constraint is infeasible in the current
    domains (the box can be pruned). *)

val compile : index_of:(string -> int) -> Formula.atom -> compiled

val forward : Interval.t array -> compiled -> Interval.t
(** Forward sweep only: the enclosure of the constraint's expression over
    the given domains (domains are not modified). *)

val certainly_true : Interval.t array -> compiled -> bool
(** Whole-box satisfaction test: true when every point of the box satisfies
    the constraint (from the forward enclosure alone). *)

val revise : Interval.t array -> compiled -> bool
(** One forward–backward pass.  Narrows [domains] in place; returns whether
    any domain changed; raises {!Empty_box} on infeasibility. *)
