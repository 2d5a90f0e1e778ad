(** Numerical integration of autonomous and time-varying ODEs.

    The closed-loop models in this library are autonomous ([ẋ = f(x)]), but
    the integrators accept a time argument for generality.  Simulation
    traces are the raw material of the barrier-certificate LP: each sampled
    state contributes positivity and decrease constraints. *)

type field = float -> Vec.t -> Vec.t
(** [field t x] is [ẋ] at time [t], state [x]. *)

type trace = { times : float array; states : Vec.t array }
(** A trajectory sampled at increasing times; [states.(i)] is the state at
    [times.(i)].  Invariant: equal lengths, at least one sample. *)

val trace_length : trace -> int

val final_state : trace -> Vec.t

val step_euler : field -> float -> Vec.t -> float -> Vec.t
(** [step_euler f t x h] is the explicit-Euler step of size [h]. *)

val step_rk4 : field -> float -> Vec.t -> float -> Vec.t
(** Classic fourth-order Runge–Kutta step. *)

val simulate :
  ?method_:[ `Euler | `Rk4 ] ->
  field ->
  t0:float ->
  x0:Vec.t ->
  dt:float ->
  steps:int ->
  trace
(** Fixed-step integration recording every step (so the trace has
    [steps + 1] samples).  Default method is [`Rk4].  If a step produces a
    non-finite state (divergent or faulty dynamics), integration stops and
    the trace is truncated at the last finite sample — traces never contain
    NaN/Inf states. *)

val simulate_until :
  ?method_:[ `Euler | `Rk4 ] ->
  ?stop:(float -> Vec.t -> bool) ->
  field ->
  t0:float ->
  x0:Vec.t ->
  dt:float ->
  t_end:float ->
  trace
(** Like {!simulate} but integrates to [t_end]; if [stop] becomes true the
    trace is truncated at that sample.  Non-finite states truncate the
    trace exactly as in {!simulate}. *)

(** {1 Adaptive integration} *)

val simulate_rk45 :
  ?stop:(float -> Vec.t -> bool) ->
  field ->
  t0:float ->
  x0:Vec.t ->
  dt:float ->
  t_end:float ->
  trace
(** Dormand–Prince 5(4) with error-controlled steps (rel_tol 1e-6, abs_tol
    1e-9, steps at most 0.5), six field evaluations per step (FSAL).  The
    trace holds the samples at [t0 + i·dt] for every such time [<= t_end],
    read off Hairer's fourth-order dense output, so it has the shape
    {!simulate_until} gives while the steps themselves follow the error
    control.  [stop] is checked at each sample and the trace ends at the
    first one where it holds.  A non-finite stage or sample, a step below
    1e-12 and 10,000 attempted steps all end the trace at the last finite
    sample, like {!simulate}.  Adds the field evaluations to the
    [ode.field_evals] counter once per trace. *)
