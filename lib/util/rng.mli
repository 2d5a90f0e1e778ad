(** Deterministic pseudo-random number generation.

    Every stochastic component of the library (CMA-ES, initial-state
    sampling, NN initialization) draws from an explicit generator state so
    that experiments are reproducible from a single integer seed.  The
    implementation is splitmix64, which has good statistical quality for
    simulation workloads and a trivially portable definition. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a fresh generator from an integer seed.  Equal
    seeds yield identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future
    stream. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the derived
    stream is statistically independent of the parent's continuation. *)

val float : t -> float
(** [float t] is uniform on [0, 1). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform on [lo, hi). *)

val normal : t -> float
(** Standard normal deviate (Box–Muller, using both deviates). *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1]; [n] must be positive. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
