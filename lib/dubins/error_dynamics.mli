(** Closed-loop error dynamics of the path-following Dubins car.

    This is the model that gets verified: state [x = [d_err; θ_err]], a
    constant-heading (straight-line) target path, and the paper's dynamics

    {v
      ḋ_err  = −V sin(θ_r − θ_err) cos θ_r + V cos(θ_r − θ_err) sin θ_r
      θ̇_err = −u,     u = h(d_err, θ_err)
    v}

    For constant [θ_r] the first line reduces algebraically to
    [V sin θ_err]; both forms are provided (and tested equal), and the
    verification pipeline uses the paper's full form. *)

val var_derr : string
(** Name of the distance-error variable (["derr"]). *)

val var_theta_err : string
(** Name of the angle-error variable (["theta_err"]). *)

type config = { v : float;  (** constant longitudinal speed *) theta_r : float }

val default_config : config
(** [v = 1.0], [theta_r = 0.0]. *)

(** {1 Numeric closed loop} *)

val field : config -> controller:(float -> float -> float) -> Ode.field
(** Closed-loop vector field on [[d_err; θ_err]]; [controller derr θerr]
    is the steering command [u]. *)

val field_of_network : config -> Nn.t -> Ode.field
(** Closed loop with an NN controller (2 inputs, 1 output). *)

(** {1 Symbolic closed loop} *)

val symbolic_field : config -> u:Expr.t -> Expr.t array
(** The paper-form closed-loop field as expressions in [var_derr] and
    [var_theta_err]; [u] must be an expression over the same variables
    (typically {!Nn.to_exprs} output). *)

val symbolic_field_simplified : config -> u:Expr.t -> Expr.t array
(** The algebraically reduced form [[V sin θ_err; −u]] (assumes constant
    [θ_r]); used in tests to validate the identity. *)

val symbolic_controller : Nn.t -> Expr.t
(** Controller output as an expression in [var_derr], [var_theta_err].
    Raises [Invalid_argument] unless the network has 2 inputs and 1
    output. *)

(** {1 Controllers} *)

val reference_controller : Nn.t
(** A fixed, hand-crafted stabilizing controller — two tansig hidden
    neurons computing [u = a·tanh(b·derr) + c·tanh(d·θ_err)] — used for
    deterministic tests and as the base of the scaling sweep.  It
    stabilizes the error dynamics for [V = 1]. *)

val controller_of_width : int -> Nn.t
(** Controller with the given hidden width for the scaling sweep: the
    reference controller widened ({!Nn.widen}) to [width] (a positive
    multiple of 2, else [Invalid_argument]), with its hidden neurons
    shuffled by [Rng.create 1]. *)

val distinct_controller_of_width : int -> Nn.t
(** [controller_of_width width] with every hidden neuron made distinct:
    each first-layer weight is scaled by [1 + 0.01·u] and each bias gets
    [+ 0.01·u], with [u] uniform in [[-1, 1]] drawn from [Rng.create 42].
    Deterministic.  Its condition (5) tape grows with [width], where the
    widened controller's collapses under hash-consing; this is the Table 1
    workload. *)
