(** World-frame Dubins car and the closed-loop simulation setup (paper
    Figure 2): preprocessing (path-error computation) → NN controller →
    plant.

    World state is [[x_v; y_v; θ_v]] with the paper's heading convention
    (clockwise from the +y axis):

    {v ẋ_v = V sin θ_v,   ẏ_v = V cos θ_v,   θ̇_v = u v} *)

type pose = { x : float; y : float; theta : float }

type rollout = {
  trace : Ode.trace;  (** world-frame trajectory *)
  derr : float array;  (** distance error at each sample *)
  theta_err : float array;  (** angle error at each sample *)
  u : float array;  (** controller command at each sample *)
}

val rollout :
  ?stop_at_end:bool ->
  v:float ->
  path:Path.t ->
  dt:float ->
  steps:int ->
  x0:pose ->
  Nn.t ->
  rollout
(** Fixed-step (RK4) closed-loop rollout recording errors and commands —
    the discrete-time simulation the training cost is computed from.
    With [stop_at_end] (default true) integration stops once the vehicle's
    path projection reaches the final waypoint, so post-completion motion
    does not pollute the error signals. *)

val start_pose : Path.t -> pose
(** Pose at the path start, aligned with the first segment. *)
