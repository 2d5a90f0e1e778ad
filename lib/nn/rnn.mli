(** Recurrent (Elman) neural controllers — the *stateful* controller class
    the paper defers to future work ("investigating stateful controllers
    based on recurrent neural networks").

    State update and output:

    {v
      h' = (1 − λ)·h + λ·tanh(W_x · x + W_h · h + b_h)
      u  = act_out(W_o · h' + b_o)
    v}

    [λ ∈ (0, 1]] is a *leak* factor: [λ = 1] is the classic Elman update;
    smaller values give a leaky-integrator unit whose state moves at most
    [λ·(1 + ‖h‖)] per step.  Bounded per-step motion matters for
    verification: a hard Elman update can jump the hidden state across the
    whole [[-1,1]] range in one step, which no quadratic certificate over
    the augmented state can absorb (see EXPERIMENTS.md).

    Closing the loop with a stateful controller augments the verified state
    space with the hidden vector [h]; see {!Discrete} for the discrete-time
    barrier procedure over the augmented state. *)

type t = {
  w_input : Mat.t;  (** [hidden × inputs] *)
  w_recurrent : Mat.t;  (** [hidden × hidden] *)
  b_hidden : Vec.t;
  w_output : Mat.t;  (** [outputs × hidden] *)
  b_output : Vec.t;
  output_activation : Nn.activation;
  leak : float;  (** λ ∈ (0, 1]; 1 = Elman *)
}

val create :
  rng:Rng.t ->
  inputs:int ->
  hidden:int ->
  outputs:int ->
  ?output_activation:Nn.activation ->
  ?leak:float ->
  unit ->
  t
(** Xavier-initialized recurrent network ([output_activation] defaults to
    [Tansig], matching the paper's feedforward controllers). *)

val of_weights :
  w_input:Mat.t ->
  w_recurrent:Mat.t ->
  b_hidden:Vec.t ->
  w_output:Mat.t ->
  b_output:Vec.t ->
  ?output_activation:Nn.activation ->
  ?leak:float ->
  unit ->
  t
(** Validates shape consistency; raises [Invalid_argument] otherwise. *)

val inputs : t -> int

val hidden : t -> int

val outputs : t -> int

val step : t -> state:Vec.t -> input:Vec.t -> Vec.t * Vec.t
(** [step t ~state ~input] is [(state', output)]. *)

val num_params : t -> int

val get_params : t -> Vec.t

val set_params : t -> Vec.t -> t

(** {1 Symbolic view} *)

val step_exprs : t -> state:Expr.t array -> input:Expr.t array -> Expr.t array * Expr.t array
(** Symbolic [(state', output)] for symbolic state and input — feeds the
    discrete-time verification engine. *)
