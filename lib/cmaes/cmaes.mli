(** Covariance Matrix Adaptation Evolution Strategy (CMA-ES).

    Derandomized (μ/μ_w, λ)-ES following Hansen & Ostermeier (2001) and
    Hansen's reference formulation: weighted recombination, cumulative
    step-size adaptation, and rank-one + rank-μ covariance updates.  This is
    the policy-search optimizer the paper uses to train the NN controller
    ("direct policy search variant of reinforcement learning using a CMA-ES
    algorithm").

    Two covariance modes are supported: [`Full] (the classic algorithm,
    with Jacobi eigendecomposition for sampling) and [`Diagonal]
    (separable CMA-ES, linear cost per dimension) for high-dimensional
    parameter vectors. *)

type mode = [ `Full | `Diagonal ]

type t
(** Mutable optimizer state. *)

val create :
  ?lambda:int ->
  ?sigma:float ->
  ?mode:mode ->
  rng:Rng.t ->
  Vec.t ->
  t
(** [create ~rng x0] starts a run centred at [x0].  Defaults:
    [lambda = 4 + ⌊3 ln n⌋], [sigma = 0.3], [mode = `Full] for
    [n <= 200] and [`Diagonal] above. *)

val dim : t -> int

val lambda : t -> int

val generation : t -> int

val mean : t -> Vec.t

val sigma : t -> float

val best : t -> (Vec.t * float) option
(** Best-ever candidate and its fitness (lower is better). *)

val ask : t -> Vec.t array
(** Sample the next population of [lambda] candidates. *)

val tell : t -> Vec.t array -> float array -> unit
(** [tell t pop fitness] ranks the population (ascending fitness = better)
    and performs the mean, path, covariance and step-size updates.  The
    population must be the one returned by the matching {!ask}. *)

type stop_reason =
  | Max_iterations
  | Tol_fun of float
  | Tol_sigma of float
  | Budget_exceeded of Budget.stop
      (** the training budget's deadline/cancellation fired between
          generations *)

val optimize :
  ?max_iter:int ->
  ?tol_fun:float ->
  ?budget:Budget.t ->
  ?callback:(t -> int -> float -> unit) ->
  t ->
  (Vec.t -> float) ->
  Vec.t * float * stop_reason
(** Ask/tell loop minimizing the objective.  [callback t gen best_fitness]
    runs after each generation.  Returns the best-ever solution.  Defaults:
    [max_iter = 200], [tol_fun = 1e-12] (spread of the current population's
    fitness); a step size below 1e-14 stops with [Tol_sigma].  [budget]
    (default unlimited) is checked before each generation; on exhaustion
    the best-so-far solution is returned with [Budget_exceeded]. *)
