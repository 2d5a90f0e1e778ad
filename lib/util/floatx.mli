(** Floating-point helpers shared across the library. *)

val pi : float

val two_pi : float

val approx : ?rel:float -> ?abs:float -> float -> float -> bool
(** [approx a b] holds when [a] and [b] agree up to a mixed
    relative/absolute tolerance (default [rel = 1e-9], [abs = 1e-12]). *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] saturates [x] into [lo, hi]. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive. *)

val wrap_angle : float -> float
(** [wrap_angle a] maps [a] into (-pi, pi]. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0 for arrays shorter than 2. *)

val sum : float array -> float

val max_elt : float array -> float
(** Largest element; raises [Invalid_argument] on the empty array. *)

val min_elt : float array -> float
(** Smallest element; raises [Invalid_argument] on the empty array. *)
