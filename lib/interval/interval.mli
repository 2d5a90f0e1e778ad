(** Outward-rounded interval arithmetic.

    This is the numeric core of the δ-SAT solver: every operation returns an
    interval guaranteed to contain the exact image of its arguments
    (soundness), achieved by widening each elementary float operation by one
    ulp in each direction and by wrapping transcendental functions in an
    additional error envelope.  Intervals may have infinite endpoints; the
    empty interval is a distinguished value.

    Soundness contract: for every unary operation [f] here and the real
    function [f_real] it models, [x ∈ xi] implies [f_real x ∈ f xi]
    (and similarly for binary operations).  The solver's UNSAT answers rely
    on this inclusion; its SAT answers are δ-weakened and need no rounding
    guarantees. *)

type t = private { lo : float; hi : float }
(** Invariant: [lo <= hi], or the distinguished empty value. *)

val make : float -> float -> t
(** [make lo hi]; raises [Invalid_argument] when [lo > hi] or an endpoint is
    NaN. *)

val of_float : float -> t
(** Degenerate interval [x, x]. *)

val empty : t

val entire : t
(** [-∞, +∞]. *)

val is_empty : t -> bool

val lo : t -> float

val hi : t -> float

val width : t -> float
(** [hi - lo]; [infinity] for unbounded intervals; [0.] when empty. *)

val midpoint : t -> float
(** Finite midpoint (clamped for half-bounded intervals); meaningless when
    empty. *)

val mem : float -> t -> bool

val subset : t -> t -> bool
(** [subset a b] iff every point of [a] lies in [b]; the empty interval is a
    subset of everything. *)

val intersects : t -> t -> bool

val meet : t -> t -> t
(** Intersection (possibly empty). *)

val hull : t -> t -> t
(** Smallest interval containing both. *)

val split : t -> t * t
(** Bisect at the midpoint; both halves share the midpoint endpoint. *)

(** {1 Arithmetic} *)

val neg : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t

val div : t -> t -> t
(** Extended division: when the divisor straddles zero the result is the
    hull of both quotient branches (possibly [entire]). *)

val mul_preimage : t -> t -> t
(** [mul_preimage r y] encloses [{x : ∃y ∈ y, x·y ∈ r}], the values of one
    factor of a product that meets [r] with some value of the other.  This
    is HC4's backward projection through [x·y] (and through a quotient's
    divisor); [div] alone is not, because when [0 ∈ r] and [0 ∈ y] every
    [x] qualifies, while [div r y] answers [{0}] or empty there. *)

val inv : t -> t

val sqr : t -> t

val sqrt : t -> t
(** Restricted to the non-negative part of the argument; empty if the
    argument is entirely negative. *)

val pow : t -> int -> t
(** Integer power with even/odd sign handling; [pow x 0] is [1,1] for
    non-empty [x]. *)

val root : t -> int -> t
(** [root r n], for [n ≥ 1], encloses every real [x] with [x^n ∈ r]: the
    signed root for odd [n], the non-negative root for even [n] (empty
    when [r] is entirely negative).  Each end starts from [b ** (1/n)] and
    steps outward by 1, 2, 4, … ulps until an outward-rounded product
    bound on its n-th power lies on its side of [b].  The backward
    projection of [x^n] in {!Tape} uses it. *)

val abs : t -> t

val min_i : t -> t -> t

val max_i : t -> t -> t

(** {1 Transcendental functions} *)

val exp : t -> t

val log : t -> t
(** Restricted to the positive part of the argument; empty when the argument
    is entirely non-positive. *)

val sin : t -> t

val cos : t -> t

val tanh : t -> t

val sigmoid : t -> t
(** Logistic function [1 / (1 + e^(-x))] — the [logsig] activation. *)

val atan : t -> t

(** {1 Inverse functions for HC4 backward propagation}

    These are used only to *contract* candidate sets, so restricted domains
    return the sound enclosure of all preimages within the principal
    branch. *)

val asin : t -> t
(** Preimages of [meet x [-1,1]] under [sin] in [-π/2, π/2]; empty when the
    argument misses [-1, 1]. *)

val acos : t -> t
(** Preimages of [meet x [-1,1]] under [cos] in [0, π]. *)

val atanh : t -> t
(** Preimages of [meet x (-1,1)] under [tanh]; endpoints at ±1 map to
    ±∞. *)

val logit : t -> t
(** Inverse of {!sigmoid}: preimages of [meet x (0,1)]. *)

val tan_principal : t -> t
(** Preimages of [x] under [atan], i.e. [tan] on (-π/2, π/2). *)

(** {1 Utilities} *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
