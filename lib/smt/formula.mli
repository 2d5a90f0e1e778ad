(** Quantifier-free formulas over nonlinear real arithmetic.

    Atoms are normalized to comparisons with zero.  Formulas are closed
    under conjunction, disjunction and negation; the solver works on the
    disjunctive normal form, which stays small for the barrier queries
    (set-membership of rectangles and half-space unions). *)

type rel = Le0  (** e ≤ 0 *) | Lt0  (** e < 0 *) | Eq0  (** e = 0 *)

type atom = { expr : Expr.t; rel : rel }

type t =
  | True
  | False
  | Atom of atom
  | And of t list
  | Or of t list
  | Not of t

(** {1 Builders} *)

val le : Expr.t -> Expr.t -> t
(** [le a b] is [a ≤ b]. *)

val lt : Expr.t -> Expr.t -> t

val ge : Expr.t -> Expr.t -> t

val gt : Expr.t -> Expr.t -> t

val eq : Expr.t -> Expr.t -> t

val and_ : t list -> t

val or_ : t list -> t

val not_ : t -> t

val in_rect : (string * float * float) list -> t
(** Conjunction [lo_i ≤ v_i ≤ hi_i]. *)

val outside_rect : (string * float * float) list -> t
(** Disjunction [v_i < lo_i ∨ v_i > hi_i]. *)

(** {1 Semantics} *)

val eval : (string * float) list -> t -> bool

val holds_delta : float -> (string * float) list -> t -> bool
(** δ-weakened truth: each atom [e ⋈ 0] is accepted when [e(x) ≤ δ]
    (resp. [|e(x)| ≤ δ] for equality). *)

val to_dnf : t -> atom list list
(** Negation-normalized disjunctive normal form; [True] maps to [[[]]] and
    [False] to [[]].  Negated atoms flip: [¬(e ≤ 0) = -e < 0],
    [¬(e = 0)] becomes [e < 0 ∨ -e < 0]. *)

val free_vars : t -> string list

val pp : Format.formatter -> t -> unit

val to_smtlib : t -> string
(** SMT-LIB 2 term (dReal dialect), e.g. [(and (<= e 0) (or ...))]. *)

val to_smtlib_script : bounds:(string * float * float) list -> t -> string
(** A complete [(set-logic QF_NRA)] script declaring the bounded variables,
    asserting the bounds and the formula, and ending with [(check-sat)] —
    directly consumable by dReal for cross-checking. *)
