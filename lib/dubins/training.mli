(** Policy search for the NN path-following controller (paper §4.2).

    Direct policy search: CMA-ES optimizes the flat parameter vector of the
    controller against the paper's cost

    {v
      J = Σ_k (100·d_err_k² + 10⁵·θ_err_k² + 100·u_k²)
          + 10³·|(x_end, y_end) − (x_vN, y_vN)|²
    v}

    computed from a discrete-time closed-loop simulation on a target path. *)

type cost_weights = {
  w_derr : float;  (** 100 in the paper *)
  w_theta : float;  (** 10⁵ in the paper *)
  w_u : float;  (** 100 in the paper *)
  w_terminal : float;  (** 10³ in the paper *)
}

val cost :
  ?weights:cost_weights ->
  v:float ->
  path:Path.t ->
  dt:float ->
  steps:int ->
  Nn.t ->
  float
(** The cost of one rollout from the path start, under [weights]
    (default the paper's). *)

type snapshot = {
  iteration : int;
  best_cost : float;
  actual_path : (float * float) array;  (** vehicle (x, y) samples *)
}

type result = {
  network : Nn.t;
  final_cost : float;
  history : (int * float) list;  (** best cost per CMA-ES iteration *)
  snapshots : snapshot list;  (** rollouts at requested iterations *)
}

val perturbed_start : Path.t -> derr:float -> theta_err:float -> Dubins_car.pose
(** Pose offset laterally by [derr] (left positive) from the path start and
    rotated so the initial angle error is [theta_err]. *)

val train :
  ?hidden:int ->
  ?population:int ->
  ?iterations:int ->
  ?v:float ->
  ?dt:float ->
  ?steps:int ->
  ?snapshot_at:int list ->
  ?sigma:float ->
  ?perturbed:(float * float) list ->
  ?perturbed_steps:int ->
  ?initial:Nn.t ->
  rng:Rng.t ->
  Path.t ->
  result
(** Train a controller on a target path.  Defaults match the paper's
    Figure 4 run: [hidden = 10], [population = 15], [iterations = 50].
    [snapshot_at] (default [[0; 5; 25]]) records intermediate rollouts; the
    final controller is always recorded.

    [perturbed] (default empty) lists extra [(derr₀, θ_err₀)] starting
    offsets whose short recovery rollouts ([perturbed_steps], default 120)
    are added to the cost.  The paper validates its controller "for a set
    of random reference trajectories" after training; perturbed starts are
    the analogous robustification and are needed for controllers that must
    stabilize from the whole domain of interest [D] (not just from on-path
    states) — which is what the barrier certificate asserts.

    The perturbed-start rollouts are weighed with [w_derr = 100],
    [w_theta = 100], [w_u = 10] and [w_terminal = 0].  The paper's weights
    put 10⁵ on θ_err², under which *parking off the path* is cheaper than
    steering back from a large offset — so recovery uses balanced weights
    instead.

    [initial] warm-starts the search from an existing controller's
    parameters (it must have the same architecture as the [hidden] width
    implies); use it to fine-tune a path-tracking controller with perturbed
    starts in a second phase. *)
