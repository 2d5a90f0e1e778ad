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

val simulate_until :
  ?stop:(float -> Vec.t -> bool) ->
  field ->
  t0:float ->
  x0:Vec.t ->
  dt:float ->
  t_end:float ->
  trace
(** Fixed-step classic fourth-order Runge–Kutta from [t0] to [t_end],
    recording every step; the last step is shortened to land on [t_end].
    If [stop] becomes true the trace is truncated at that sample.  If a
    step produces a non-finite state (divergent or faulty dynamics),
    integration stops and the trace ends at the last finite sample, so
    traces never contain NaN/Inf states.  Raises [Invalid_argument] unless
    [dt > 0] and [t_end >= t0]. *)

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
    sample, like {!simulate_until}.  Adds the field evaluations to the
    [ode.field_evals] counter once per trace. *)
