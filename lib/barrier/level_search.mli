(** Level-set selection with SMT-checked binary search — the lower loop of
    the paper's Figure 1, shared between the continuous-time engine
    ({!Engine}) and the discrete-time engine ({!Discrete}).

    Given a quadratic(-plus-linear) generator [W], find ℓ with
    [X0 ⊂ {W ≤ ℓ}] (condition 6) and [{W ≤ ℓ} ∩ U = ∅] (condition 7),
    seeding a binary search from the analytic ellipsoid bounds. *)

type spec = {
  vars : string array;
  x0_rect : (float * float) array;
  safe_rect : (float * float) array;  (** the query domain [D] *)
  unsafe_rect : (float * float) array;
      (** Despite the name, this field holds the rectangle of states that
          are SAFE to occupy: the unsafe set [U] is its {e complement}
          [U = ℝⁿ \ Π[lo_i, hi_i]], i.e. everything outside these bounds.
          (The name survives from the paper's "unsafe-set rectangle"
          phrasing, where [U] is specified {e by} the rectangle whose
          exterior it is.)  Dimensions with infinite bounds (e.g.
          controller internal state, which cannot itself be "unsafe")
          contribute no unsafe faces.  For the planar case this equals
          [safe_rect]. *)
  smt : Solver.options;
  max_iters : int;
}

val condition7_query_rect :
  Template.t ->
  float array ->
  level:float ->
  unsafe_rect:(float * float) array ->
  (float * float) array
(** The bounded query box a condition-(7) solve runs over, shared by the
    bisection here, {!Checker.audit} and [Engine.dump_smt2].  For
    degree-2 templates this is the slightly inflated analytic bounding box
    of the sublevel ellipsoid (bit-identical to the historical
    computation; may raise [Levelset.Not_definite] / [Lu.Singular] like
    the analytic range).  For degrees above 2 — whose sublevel sets admit
    no analytic enclosure and may be unbounded — it is a thin shell just
    outside
    [unsafe_rect]: conditions (5)/(6) keep [W ≤ ℓ] along any trajectory
    while it remains in the closed rectangle, so a safety violation must
    cross a face, and Unsat on the shell refutes every crossing point.
    Infinite bounds are clamped to ±1e12, matching the membership
    atoms. *)

val search :
  ?budget:Budget.t ->
  ?stats:Cegis.stats ->
  spec ->
  Template.t ->
  float array ->
  (float, Cegis.failure_reason) result
(** Run the analytic range computation and the SMT-checked refinement.
    The error is [Level_range_empty] (no level separates X0 from U for
    this W), [Level_budget_exhausted], [Solver_inconclusive] (an SMT query
    returned Unknown) or [Timeout "level"].  [budget] (default unlimited)
    is checked before every refinement iteration and threaded into each
    SMT query.

    The search adds into [stats] (an output only; a fresh record when
    omitted): one [level_iterations] per bisection, the condition (6)/(7)
    seconds, preparation included, as {!Cegis.Condition6} /
    {!Cegis.Condition7} stages, and the [budget_stop] behind a
    [Timeout]. *)
