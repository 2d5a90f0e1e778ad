(** Linear programming for the synthesis pipeline.

    This is the substitute for MATLAB's [linprog] in the paper's pipeline:
    the generator-function candidate is the solution of an LP whose rows
    come from simulation traces.  Problems are small in the variable
    dimension (tens of variables) but can carry hundreds-to-thousands of
    rows, and the CEGIS loop re-solves near-identical instances with one
    new cut per iteration.

    Two engines are provided.  {!Revised} (the default) is a revised
    simplex on the dual of the row form: the basis is [n×n] in the
    variable dimension, LU-factorized with product-form eta updates, and
    adding a primal constraint adds a dual {e column} — so {!Incremental}
    resolves warm-start from the previous optimal basis with no phase 1.
    {!Tableau} is the original dense two-phase primal simplex, kept as a
    differential-testing oracle (and as the fallback the revised engine
    re-solves with whenever it cannot classify an instance numerically).

    Variables may have arbitrary (possibly infinite) bounds; free variables
    are handled by the classic positive/negative split (tableau) or
    directly via artificial basis columns (revised). *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : float array;  (** dense row, one coefficient per variable *)
  relation : relation;
  rhs : float;
}

type problem = {
  objective : float array;  (** minimize [objective · x] *)
  constraints : constr list;
  bounds : (float * float) array;
      (** per-variable [(lower, upper)]; use [neg_infinity] / [infinity] for
          unbounded sides *)
}

type solution = { x : float array; objective_value : float }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Timeout of Budget.stop
      (** the pivot limit or the budget's deadline/cancellation fired before
          the simplex terminated — a cycling or oversized LP never spins
          past its deadline *)

type engine =
  | Tableau  (** dense two-phase primal simplex — the differential oracle *)
  | Revised  (** revised simplex on the dual row form — the default *)

val free : float * float
(** [(neg_infinity, infinity)]. *)

val nonneg : float * float
(** [(0., infinity)]. *)

val minimize : ?engine:engine -> ?budget:Budget.t -> ?max_pivots:int -> problem -> result
(** [budget] is polled before every pivot; [max_pivots] bounds the pivot
    count of each simplex phase.  Both default to unlimited.  [engine]
    defaults to {!Revised}; both engines agree on status and (to relative
    1e-6) on the optimal objective — enforced by the test suite's
    differential property. *)

val maximize : ?engine:engine -> ?budget:Budget.t -> ?max_pivots:int -> problem -> result
(** Same problem with the objective negated; the reported
    [objective_value] is the maximum. *)

(** Incremental solves for cut loops, on the {!Revised} engine.  Build
    once from the initial rows, [add_constraint] each counterexample cut,
    [resolve] — each resolve warm-starts from the previous optimal basis (a
    new primal row is a new dual column, so the old basis stays feasible
    and no phase 1 is needed).  An instance the revised engine cannot
    classify, or an optimum failing the feasibility guard, is re-solved
    cold by the {!Tableau} engine. *)
module Incremental : sig
  type t

  val create : problem -> t
  (** Raises [Invalid_argument] on arity mismatches or empty bounds. *)

  val add_constraint : t -> constr -> unit
  (** Append one constraint (a CEGIS cut).  Raises [Invalid_argument] on
      arity mismatch. *)

  val nrows : t -> int
  (** Constraint rows accumulated so far (initial + added). *)

  val warm : t -> bool
  (** Whether the next {!resolve} will start from a previous basis. *)

  val problem : t -> problem
  (** The accumulated problem (initial constraints plus added cuts, in
      insertion order) — what a cold solve would see. *)

  val resolve : ?budget:Budget.t -> ?max_pivots:int -> t -> result
  (** Solve the accumulated problem.  Warm-starts when {!warm} is true. *)
end

val check_feasible : ?tol:float -> problem -> float array -> bool
(** [check_feasible p x] verifies all constraints and bounds at [x] up to
    [tol] (default 1e-7); used by tests and as a postcondition guard. *)
