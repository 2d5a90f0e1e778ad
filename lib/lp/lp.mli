(** Linear programming for the synthesis pipeline.

    This is the substitute for MATLAB's [linprog] in the paper's pipeline:
    the generator-function candidate is the solution of an LP whose rows
    come from simulation traces.  Problems are small in the variable
    dimension (tens of variables) but can carry hundreds-to-thousands of
    rows, and the CEGIS loop re-solves near-identical instances with one
    new cut per iteration.

    The solver is a revised simplex on the dual of the row form: the basis
    is [n×n] in the variable dimension, LU-factorized with product-form eta
    updates, and adding a primal constraint adds a dual {e column} — so
    {!Incremental} resolves warm-start from the previous optimal basis.

    Every variable must lie in a finite box.  The box's bound rows then
    give a dual-feasible cold basis, so no solve needs a phase 1, and the
    primal is never unbounded.  The LP is only the learner: δ-SAT decides
    every candidate it proposes, so an LP defect can cost an iteration but
    never a wrong "proved". *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : float array;  (** dense row, one coefficient per variable *)
  relation : relation;
  rhs : float;
}

type problem = {
  objective : float array;  (** minimize [objective · x] *)
  constraints : constr list;
  bounds : (float * float) array;  (** per-variable [(lower, upper)], both finite *)
}

type solution = { x : float array; objective_value : float }

type result =
  | Optimal of solution
  | Infeasible
  | Numerical_failure
      (** the solve could not classify the instance: the factorization
          failed, or the optimum failed the feasibility guard, from the
          cold basis too *)
  | Timeout of Budget.stop
      (** the pivot limit or the budget's deadline/cancellation fired before
          the simplex terminated — a cycling or oversized LP never spins
          past its deadline *)

val minimize : ?budget:Budget.t -> ?max_pivots:int -> problem -> result
(** A cold solve.  [budget] is polled before every pivot; [max_pivots]
    bounds the pivot count of each attempt.  Both default to unlimited.
    Raises [Invalid_argument] on arity mismatches and on a bound that is
    not finite or has [lower > upper]. *)

(** Incremental solves for cut loops.  Build once from the initial rows,
    [add_constraint] each counterexample cut, [resolve] — each resolve
    warm-starts from the previous basis (a new primal row is a new dual
    column, so the old basis stays dual-feasible).  A warm solve that fails
    numerically, or whose optimum fails the feasibility guard, is retried
    once from the cold basis and counted in [lp.cold_retries]; if the cold
    solve fails too, the result is {!Numerical_failure}. *)
module Incremental : sig
  type t

  val create : problem -> t
  (** Validates as {!minimize} does. *)

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
    [tol] (default 1e-7), relative to each row's and bound's magnitude;
    used by tests and as the postcondition guard on every optimum. *)
