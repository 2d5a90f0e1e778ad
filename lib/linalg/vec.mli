(** Dense real vectors backed by [float array].

    Vectors are plain arrays so they interoperate directly with the rest of
    the code base; this module adds the algebraic operations, all of which
    allocate fresh results unless suffixed [_inplace]. *)

type t = float array

val make : int -> float -> t

val zeros : int -> t

val init : int -> (int -> float) -> t

val dim : t -> int

val copy : t -> t

val add : t -> t -> t
(** Component-wise sum; raises [Invalid_argument] on dimension mismatch. *)

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y]. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val dist2 : t -> t -> float
(** Euclidean distance. *)

val hadamard : t -> t -> t
(** Component-wise product. *)

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t

val add_inplace : t -> t -> unit
(** [add_inplace x y] sets [x <- x + y]. *)

val scale_inplace : float -> t -> unit

val of_list : float list -> t

val pp : Format.formatter -> t -> unit

val approx_equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison with absolute tolerance (default [1e-9]). *)
