(** Candidate-generator synthesis by linear programming (paper §3).

    Every sampled state [x_k] of every simulation trace yields linear rows
    in the template coefficients [c] and an auxiliary margin variable [m]:

    - positivity:  [W(x_k) ≥ m · ρ(x_k)]
    - decrease:    [ΔW ≤ −m · ρ(x_k)]   (finite difference along the trace)
      or           [∇W·f(x_k) ≤ −m · ρ(x_k)]   (Lie derivative)

    with [ρ(x) = ‖x‖²] so that the required decrease vanishes at the
    equilibrium.  The LP maximizes [m] under [‖c‖_∞ ≤ 1]; a strictly
    positive optimum yields the candidate [W]. *)

type mode = Finite_difference | Lie_derivative

type options = {
  mode : mode;
  subsample : int;  (** keep every n-th trace sample, default 1 *)
  min_rho : float;  (** skip samples with [‖x‖² <] this, default 1e-6 *)
  coeff_bound : float;  (** [‖c‖_∞] bound, default 1.0 *)
  min_margin : float;  (** reject candidates with [m ≤] this, default 1e-5 *)
  exclude_rect : (float * float) array option;
      (** drop samples inside this rectangle (the initial set [X0]): the
          decrease condition (5) is only verified on [D \ X0], so
          constraining [W] inside [X0] would reject controllers whose
          equilibrium is slightly offset from the origin (typical for
          trained networks); default [None] *)
  separation_rects : ((float * float) array * (float * float) array) option;
      (** [(x0_rect, safe_rect)]: add linear *shape rows* steering the LP
          toward level-set feasibility — for every X0 vertex [v] and
          sampled safe-boundary point [f], require
          [W(f) ≥ 1.1·W(v)].  Without them the LP is blind to the level-set
          geometry and can return a W whose sublevel ellipsoids cannot
          separate X0 from U (observed with augmented RNN state spaces).
          The rows are a heuristic sufficient *direction*, not a proof —
          conditions (6)/(7) are still SMT-checked; default [None] *)
}

val default_options : options

val with_region :
  options -> x0_rect:(float * float) array -> safe_rect:(float * float) array -> options
(** Default an unset [exclude_rect] to [x0_rect] and unset
    [separation_rects] to [(x0_rect, safe_rect)]: the LP then constrains
    [W] only where the decrease condition is checked, [D \ X0]. *)

type candidate = { coeffs : float array; margin : float }

type outcome =
  | Candidate of candidate
  | Lp_infeasible
  | Lp_unstable  (** the LP could not classify the instance numerically *)
  | Margin_too_small of float
  | Lp_timed_out of Budget.stop
      (** the LP hit the budget's deadline/cancellation before terminating *)

val count_rows : ?options:options -> template:Template.t -> Ode.trace list -> int
(** Number of LP rows the traces would generate (diagnostics). *)

val retained_indices : options -> Ode.trace -> int list
(** The subsampled trace indices the row generator keeps, in order.  The
    final index is always retained even when the stride does not land on
    it: the trace endpoint is often the deepest excursion, and dropping it
    would leave the LP unconstrained exactly where W matters most.
    Exposed for diagnostics and regression tests. *)

val grid_range : x0_rect:(float * float) array -> safe_rect:(float * float) array -> int -> float * float
(** The sampling interval the separation rows grid dimension [j] over: the
    safe-rect bounds when finite, otherwise the X0 range inflated 5× about
    its {e midpoint} (never about the origin — that would map an off-origin
    X0 outside its own grid).  Exposed for diagnostics and regression
    tests. *)

(** Incremental synthesis for the CEGIS loop: assemble the LP once from
    the seed traces, then append each refinement (counterexample cut, its
    simulated trace, shape cuts) and re-[solve].  Each re-solve
    warm-starts from the previous optimal basis ({!Lp.Incremental}). *)
module Incremental : sig
  type t

  val create :
    ?options:options ->
    ?cex_points:float array list ->
    ?exact_traces:Ode.trace list ->
    ?shape_cuts:(float array * float array) list ->
    template:Template.t ->
    field:Ode.field ->
    Ode.trace list ->
    t
  (** Assemble the LP over all rows generated from the traces.  [field] is
      used in [Lie_derivative] mode and for [cex_points].  Rows containing
      non-finite coefficients (possible only with faulty dynamics) are
      dropped here and by every [add_*] rather than poisoning the simplex.

      [cex_points] are counterexample states from failed decrease checks;
      each contributes an {e exact} Lie-derivative cut
      ∇W(x_star)·f(x_star) ≤ −m·ρ(x_star) regardless of [mode] —
      finite-difference trace rows average the decrease over a sampling
      window and can miss an instantaneous violation at x_star, which
      would stall the CEGIS loop.

      [exact_traces] are processed with [subsample = 1] regardless of
      [options] — the discrete-time engine uses them for its two-point
      counterexample orbits, whose decrease rows must not be dropped by
      subsampling.

      [shape_cuts] are [(face_point, x0_vertex)] pairs from failed
      level-set selections; each adds the hard separation row
      [W(face_point) ≥ 1.1 · W(x0_vertex)] (the shape-refinement loop). *)

  val add_cex : t -> float array -> unit
  (** Append the exact Lie-derivative cut for a counterexample state
      (skipped when [ρ(x) < min_rho], as in {!create}). *)

  val add_trace : t -> Ode.trace -> unit
  (** Append the rows of one more trace (subsampled per [options]). *)

  val add_exact_trace : t -> Ode.trace -> unit
  (** Like {!add_trace} but with [subsample = 1] (counterexample orbits). *)

  val add_shape_cut : t -> float array * float array -> unit
  (** Append one [(face_point, x0_vertex)] separation row. *)

  val row_count : t -> int
  (** Constraint rows currently in the LP (all kinds, after filtering). *)

  val warm : t -> bool
  (** Whether the next {!solve} warm-starts from a previous basis. *)

  val problem : t -> Lp.problem
  (** The accumulated LP (what a cold solve would see) — for differential
      testing and benchmarking against {!Lp.minimize}. *)

  val solve : ?budget:Budget.t -> t -> outcome
  (** Solve the accumulated LP.  [budget] bounds the simplex (polled per
      pivot); on exhaustion the outcome is [Lp_timed_out]. *)
end
