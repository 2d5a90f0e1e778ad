(** Simulation-guided Lyapunov analysis (Kapinski et al., HSCC 2014 — the
    paper's reference [11] and the direct ancestor of its barrier
    procedure).

    Instead of separating an initial set from an unsafe set, this mode
    certifies *practical stability*: a positive-definite generator [W]
    whose Lie derivative is strictly negative everywhere in a domain
    outside a small ball around the equilibrium.  Every trajectory in the
    domain then descends the [W]-landscape into the ball.

    The machinery is shared with the barrier engine: trace-driven LP
    synthesis with CEGIS counterexample cuts, and δ-SAT checks of

    - positivity:  [∀x ∈ D, ‖x‖ ≥ r:  W(x) > 0]
    - decrease:    [∀x ∈ D, ‖x‖ ≥ r:  ∇W·f(x) < −γ] *)

type config = {
  domain_rect : (float * float) array;  (** the analysis domain [D] *)
  ball_radius : float;  (** radius [r] of the excluded equilibrium ball *)
  gamma : float;  (** strictness slack, default 1e-6 *)
  n_seed : int;
  sim_dt : float;  (** sample grid spacing, as in {!Engine.config} *)
  sim_steps : int;
  synthesis : Synthesis.options;
  template_kind : Template.kind;
  max_candidate_iters : int;
  smt : Solver.options;
}

val default_config : config
(** Dubins-case-study domain: [[-5,5] × [-(π/2-ε), π/2-ε]], ball radius
    0.5. *)

type certificate = { template : Template.t; coeffs : float array }

type outcome = Proved of certificate | Failed of Engine.failure_reason

type report = {
  outcome : outcome;
  stats : Engine.stats;
      (** the run's stage seconds and counts; the decrease and positivity
          queries both count as condition (5), and the level fields stay
          zero *)
  counterexamples : float array list;
      (** every decrease and positivity witness that was cut *)
}

val verify : ?config:config -> ?budget:Budget.t -> rng:Rng.t -> Engine.system -> report
(** Run the Lyapunov variant of the pipeline through {!Cegis} with two
    obligations: decrease ({!Engine.decrease_obligation} outside the ball,
    [∃x ∈ D: ‖x‖ ≥ r ∧ ∇W·f(x) ≥ −γ]), then positivity.  [budget]
    (default unlimited) bounds simulation, the LP and every SMT query; on
    exhaustion the outcome is [Failed (Timeout stage)] with the stop
    recorded in [stats.budget_stop]. *)
