(** Dense real matrices in row-major [float array array] layout. *)

type t = float array array

val make : int -> int -> float -> t

val zeros : int -> int -> t

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t

val rows : t -> int

val cols : t -> int

val copy : t -> t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product; raises [Invalid_argument] on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [a * x]. *)

val vec_mul : Vec.t -> t -> Vec.t
(** [vec_mul x a] is [xᵀ * a] as a vector. *)

val outer : Vec.t -> Vec.t -> t
(** [outer x y] is the rank-one matrix [x yᵀ]. *)

val quadratic_form : t -> Vec.t -> float
(** [quadratic_form a x] is [xᵀ a x]. *)

val trace : t -> float

val frobenius : t -> float

val symmetrize : t -> t
(** [(a + aᵀ) / 2]. *)

val is_symmetric : ?tol:float -> t -> bool

val approx_equal : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
