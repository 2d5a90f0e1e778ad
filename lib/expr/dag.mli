(** Hash-consed expression DAGs.

    A {!t} is a mutable pool of maximally-shared expression nodes: interning
    an {!Expr.t} walks the tree bottom-up and returns the id of a node such
    that structurally equal subterms — however many times they occur, across
    however many interned roots — map to the *same* id (common-subexpression
    elimination by construction).  Node ids are dense, start at 0, and are
    topologically ordered: every operand id is strictly smaller than its
    parent's id, so a single left-to-right pass over {!ops} is a valid
    evaluation schedule.

    The pool is the front half of the solver's compilation pipeline
    (Expr tree → DAG → flat SSA tape, see [Sb_smt.Tape]); it lives in the
    expression library so that node-count accounting (tree size vs DAG
    size) needs no solver machinery. *)

type op =
  | Const of float
  | Var of string
  | Add of int * int
  | Sub of int * int
  | Mul of int * int
  | Div of int * int
  | Neg of int
  | Pow of int * int  (** node id, integer exponent *)
  | Sin of int
  | Cos of int
  | Atan of int
  | Exp of int
  | Log of int
  | Tanh of int
  | Sigmoid of int
  | Sqrt of int
  | Abs of int
(** One node; operand [int]s are ids of earlier nodes in the same pool. *)

type t

val create : unit -> t

val intern : t -> Expr.t -> int
(** [intern pool e] adds the distinct subterms of [e] not already present
    and returns the id of [e]'s node.  Interning further expressions into
    the same pool shares every common subterm with the roots already
    interned — this is how derivative expressions share their primal's
    [tanh] nodes. *)

val node_count : t -> int
(** Number of distinct nodes interned so far. *)

val op : t -> int -> op
(** Node by id; raises [Invalid_argument] when out of range. *)

val ops : t -> op array
(** Snapshot of all nodes in id (= topological) order. *)
