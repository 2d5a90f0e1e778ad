(** The full verification procedure of the paper's Figure 1.

    Pipeline: seed simulations → LP candidate → SMT check of the decrease
    condition (5) with counterexample refinement → analytic level-set
    range → SMT checks of the containment/separation conditions (6), (7)
    with binary-search refinement → certificate.

    The engine is generic over the system: any autonomous vector field given
    both numerically (for simulation) and symbolically (for SMT).  The
    Dubins case study instantiates it via [Plant.close] on
    [Registry.dubins_error]. *)

type system = {
  vars : string array;  (** state variable names, fixing coordinate order *)
  numeric_field : Ode.field;
  symbolic_field : Expr.t array;  (** [f], one expression per variable *)
}

type config = {
  x0_rect : (float * float) array;  (** initial set, per variable *)
  safe_rect : (float * float) array;
      (** complement of the unsafe set [U]; the domain of interest is
          [D = safe_rect \ x0_rect] *)
  gamma : float;  (** slack of condition (5), paper value 1e-6 *)
  n_seed : int;  (** number of seed simulations, default 20 *)
  sim_dt : float;
      (** spacing of a trace's sample grid, default 0.05; the integrator's
          steps are error-controlled and independent of it
          ({!Ode.simulate_rk45}) *)
  sim_steps : int;  (** samples per trace after the initial one, default 400 *)
  synthesis : Synthesis.options;
  template_kind : Template.kind;
  max_candidate_iters : int;  (** outer CEX-refinement loop bound *)
  max_level_iters : int;  (** binary-search bound for ℓ *)
  smt : Solver.options;
      (** δ-SAT options for conditions (5)–(7); set [smt.jobs > 1] for
          domain-parallel branch-and-prune *)
  jobs : int;
      (** domains used for seed-trace simulation, default 1.  The trace
          list is identical for any value (results are merged in seed
          order), so this only affects wall clock.  Independent of
          [smt.jobs] — the CLI sets both from [--jobs]. *)
}

val default_config : config
(** The paper's case-study sets: [X0 = [−1,1] × [−π/16, π/16]],
    [safe_rect = [−5,5] × [−(π/2−ε), π/2−ε]] with [ε = 0.05],
    [γ = 1e−6]. *)

type certificate = {
  template : Template.t;
  coeffs : float array;
  level : float;  (** the barrier is [B(x) = W(x) − level] *)
}

val barrier_expr : certificate -> Expr.t
(** [B(x) = W(x) − ℓ] as an expression. *)

type stats = Cegis.stats = {
  mutable candidate_iterations : int;  (** LP + condition-(5) rounds *)
  mutable level_iterations : int;  (** level binary-search rounds *)
  mutable lp_time : float;  (** total seconds in LP solves *)
  mutable lp_calls : int;
  mutable smt5_time : float;  (** total seconds deciding condition (5) *)
  mutable smt5_calls : int;
  mutable smt5_branches : int;  (** branch-and-prune boxes over all (5) queries *)
  mutable smt67_time : float;  (** [smt6_time +. smt7_time] *)
  mutable smt6_time : float;  (** seconds deciding condition (6) *)
  mutable smt7_time : float;  (** seconds deciding condition (7) *)
  mutable sim_time : float;  (** seed and witness trace generation *)
  mutable total_time : float;
  mutable lp_rows : int;  (** rows in the last LP *)
  mutable budget_stop : Budget.stop option;
      (** which budget limit ended the run, when the outcome is a
          [Timeout] *)
}
(** The run's one statistics record, {!Cegis.stats} re-exported (its
    fields are documented there).  Every stage adds into it in place
    through {!Cegis.timed}; [total_time] is set once, when the engine
    returns. *)

(** Shared by every engine (defined by the common {!Cegis} loop). *)
type failure_reason = Cegis.failure_reason =
  | Lp_failed of string  (** infeasible LP or vanishing margin *)
  | Cex_budget_exhausted  (** condition (5) kept producing counterexamples *)
  | Level_range_empty  (** X0 cannot be separated from U by any level *)
  | Level_budget_exhausted
  | Solver_inconclusive of string  (** an SMT query returned Unknown *)
  | Timeout of string
      (** the threaded budget expired; the payload names the stage
          ("seed simulation", "lp", "candidate loop", "condition (5)",
          "level"; the Lyapunov engine's obligations are "decrease" and
          "positivity") *)
  | Seed_shortfall of int * int
      (** [(got, wanted)]: rejection sampling could not draw enough seed
          states from [safe_rect \ x0_rect] *)

type outcome = Proved of certificate | Failed of failure_reason

type report = {
  outcome : outcome;
  stats : stats;
  traces : Ode.trace list;  (** all traces used (seeds + CEX refinements) *)
  counterexamples : float array list;  (** CEX states from condition (5) *)
  cover : Solver.cover option;
      (** the recorded proof of the proved certificate's condition (5)
          ({!condition5_formula} over [safe_rect]), which
          {!Solver.refine} refines for export; [None] for failures and for
          engines that do not record one *)
}

val condition5_formula : system -> config -> certificate -> Formula.t
(** [∃x ∈ D \ X0 : ∇W·f(x) ≥ −γ] — UNSAT certifies the decrease
    condition.  Exposed for tests and ablations. *)

val condition6_formula : certificate -> Formula.t
(** [∃x ∈ X0 : W(x) − ℓ > 0] (bounds supplied separately). *)

val condition7_formula : certificate -> Formula.t
(** [∃x : W(x) ≤ ℓ] — the sublevel-set membership half of condition (7);
    the [x ∈ U] half depends on the query rectangle and is conjoined by
    the callers. *)

val decrease_obligation :
  name:string ->
  outside:Formula.t ->
  gamma:float ->
  simulate:(float array -> Ode.trace) ->
  system ->
  Template.t ->
  Cegis.obligation
(** The continuous-time decrease query [∃x : outside(x) ∧ ∇W·f(x) ≥ −γ]
    as a CEGIS obligation, over the region [outside] (D \ X0 for a
    barrier, as in {!condition5_formula}; outside the equilibrium ball for
    {!Lyapunov}).  A witness is genuine when the exact Lie derivative
    there is [≥ −γ], and it is cut by its exact Lie row plus the rows of
    its [simulate]d trace. *)

val sample_initial_states :
  rng:Rng.t -> config -> int -> (float array list, int) Result.t
(** Uniform samples from [safe_rect \ x0_rect] (the paper samples seeds
    from the domain of interest [D]).  [Ok seeds] has exactly the requested
    length; [Error got] reports how many samples rejection sampling managed
    before exhausting its guard (X0 covering essentially all of the safe
    rectangle) — callers must not run the LP on a silently smaller seed
    set. *)

val verify :
  ?config:config ->
  ?budget:Budget.t ->
  ?warm_start:float array ->
  rng:Rng.t ->
  system ->
  report
(** Run the full procedure.  [budget] (default unlimited) bounds every
    stage: seed simulation stops mid-trace at the deadline, the LP is
    polled per pivot, SMT queries per branch-and-prune box.  On exhaustion
    the outcome is [Failed (Timeout stage)] with the binding stop recorded
    in [stats.budget_stop]; partial traces/counterexamples are still
    reported.

    [warm_start] (certificate-store reuse, see [Cache] in [lib/cert])
    supplies a
    stored coefficient vector that is tried as the first candidate {e
    instead of} an LP solve.  If condition (5) accepts it the LP is skipped
    entirely ([stats.lp_calls = 0]); if refuted, the witness becomes an
    ordinary counterexample cut and the loop falls back to cold CEGIS.
    A vector whose length does not match the template is ignored.
    Soundness is unaffected — every candidate, warm or cold, passes the
    same SMT checks. *)

val exit_code : outcome -> int
(** Process exit code for CLI/CI gating: 0 for [Proved], 3 for
    [Failed (Timeout _)], 2 for every other failure.  (1 is left to the
    [check] subcommand's audit rejection, and cmdliner reserves 123–125.) *)

(** {1 Run reports} *)

val outcome_meta : outcome -> (string * Obs.Json.t) list
(** Report-meta fields describing an outcome: [outcome] ("proved"/"failed")
    plus the level or a human-readable failure reason. *)

val run_report :
  ?meta:(string * Obs.Json.t) list ->
  ?extra_stages:Obs.Report.stage list ->
  ?spans:Obs.Trace.span list ->
  report ->
  Obs.Json.t
(** Versioned [safebarrier.run_report] JSON document for one {!verify}
    run: outcome and iteration counts in [meta], the stage table
    ([simulation], [lp], [condition5], [condition6], [condition7], then
    [extra_stages], e.g. the CLI's certificate-cache stage),
    [stats.total_time] as the total, plus a snapshot of all non-zero
    {!Obs.Metrics} counters and (optionally) the span tree. *)

(** {1 Resilient verification} *)

type attempt = {
  label : string;  (** which ladder rung produced this attempt *)
  report : report;
}

type resilient_report = {
  best : report;
      (** the proved report, or the attempt that got furthest through the
          pipeline *)
  attempts : attempt list;  (** all attempts, in execution order *)
}

val verify_resilient :
  ?config:config ->
  ?budget:Budget.t ->
  ?restarts:int ->
  rng:Rng.t ->
  system ->
  resilient_report
(** Retry/degradation wrapper around {!verify}.  On failure it escalates
    through a ladder of config transformations — fresh seed traces, δ
    widened ×10, LP subsample tightened, template escalated to
    [Quadratic_linear] — accumulating the transformations across rungs.
    At most [restarts] (default 3) re-attempts run after the initial one;
    each attempt receives an even share of the remaining wall-clock as a
    sub-budget, so the whole ladder respects [budget].  Stops at the first
    proof. *)

val dump_smt2 : ?config:config -> system -> certificate -> dir:string -> string list
(** Write the three verification queries for the given certificate as
    SMT-LIB 2 scripts ([condition5.smt2], [condition6.smt2],
    [condition7.smt2]) in [dir], for cross-checking with an external
    δ-SAT solver such as dReal (the paper's backend).  The expected
    answer to every query is [unsat].  Returns the written paths. *)
