(** Discrete-time barrier certificates — the extension the paper sketches
    for *stateful* (RNN) controllers.

    A stateful controller closed with a (discretized) plant is a
    discrete-time autonomous map [x⁺ = F(x)] over the augmented state
    (plant errors + controller hidden state).  The barrier conditions
    become

    - (1) [∀x ∈ X0: W(x) ≤ ℓ]
    - (2) [∀x ∈ U:  W(x) > ℓ]
    - (3) [∀x ∈ D \ X0:  W(F(x)) − W(x) < 0]

    and the same simulation → LP → δ-SAT pipeline applies, with two
    simplifications: trace decrease rows are *exact* (no finite-difference
    approximation error), and a counterexample x* is cut exactly by the
    two-point trace x_star and F(x_star). *)

type system = {
  vars : string array;
  map_numeric : Vec.t -> Vec.t;
  delta_symbolic : Expr.t array;
      (** the symbolic *increment* [δ(x) = F(x) − x], one expression per
          variable.  The engine expands [W(F(x)) − W(x)] per template
          monomial in terms of [δ], which shares sub-terms with [x] and
          keeps interval over-approximation proportional to the step size —
          evaluating the two sums independently loses the tiny per-step
          decrease entirely. *)
}

type config = {
  x0_rect : (float * float) array;
  safe_rect : (float * float) array;  (** query domain [D] (bounds every state variable) *)
  unsafe_rect : (float * float) array;
      (** [U] = complement of this rectangle; controller-state dimensions
          get infinite bounds (they cannot be "unsafe" themselves and stay
          in [[-1,1]] by the tanh/leak invariant) *)
  gamma : float;
  n_seed : int;
  n_probes : int;
      (** one-step probe orbits scattered uniformly over [D \ X0]; long
          orbits cluster around the attractor, so probes are what teach the
          LP about off-manifold states (essential for augmented RNN state
          spaces) *)
  horizon : int;  (** iterations per seed trace *)
  synthesis : Synthesis.options;
      (** [mode] is forced to finite-difference; subsampled rows are
          multi-step decrease constraints (implied by the one-step
          condition, hence sound), and counterexamples contribute exact
          one-step rows *)
  template_kind : Template.kind;
  max_candidate_iters : int;
  max_level_iters : int;
  smt : Solver.options;
}

val default_config : dim:int -> config
(** The paper's planar sets on the first two coordinates; any further
    coordinates (controller state) get X0 = [-0.2, 0.2] (a sound
    enlargement of the true initial point \{0\} — a zero-width slice
    would put states with vanishing decrease inside [D \ X0], making
    condition (5) unprovable) and safe bounds [[-1, 1]] (the reachable
    range of tanh states). *)

val iterate : ?budget:Budget.t -> system -> config -> Vec.t -> Ode.trace
(** Orbit of the map from an initial state (times are step indices),
    truncated at the safe rectangle, at the first non-finite state, and at
    the budget's deadline. *)

val verify : ?config:config -> ?budget:Budget.t -> rng:Rng.t -> system -> Engine.report
(** The pipeline through {!Cegis} with one obligation, the discrete
    decrease; when no level separates X0 from U for a degree-2 candidate,
    the blocking geometry becomes a shape cut in the same live LP and the
    loop resumes.  The report's [sim_time] covers the seed orbits and
    probes (span [seed_simulation]) and the witness orbits, [smt5_*]
    condition (5), [smt67_time] every level search, and [traces] the
    orbits.  [budget]
    (default unlimited) bounds orbit iteration, the LP, and every SMT
    query; on exhaustion the outcome is [Failed (Timeout stage)] with the
    stop recorded in [stats.budget_stop]. *)

(** {1 Case-study closed loops} *)

val of_network : dt:float -> Nn.t -> system
(** Forward-Euler discretization of the Dubins error dynamics
    ({!Error_dynamics.default_config}) closed with a feedforward
    controller: 2-dimensional state. *)

val of_rnn : dt:float -> Rnn.t -> system
(** Discretized Dubins error dynamics closed with a *recurrent* controller
    (2 inputs, 1 output): the state is [[derr; θ_err; h_1 … h_k]]. *)
