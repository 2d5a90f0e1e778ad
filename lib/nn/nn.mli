(** Feedforward neural networks.

    Networks here are the learning-enabled controllers of the paper:
    stateless, fully connected, with arbitrary nonlinear activations.  The
    module supports three views of the same network: numeric evaluation
    (simulation), a flat parameter vector (CMA-ES policy search) and a
    symbolic expression (SMT verification) — the paper's fidelity assumption
    is that the symbolic view *is* the deployed controller. *)

type activation = Tansig | Logsig | Relu | Linear

val apply_activation : activation -> float -> float

val activation_expr : activation -> Expr.t -> Expr.t
(** Symbolic counterpart.  [Relu] is encoded as [(x + |x|) / 2]. *)

val activation_name : activation -> string

val activation_of_name : string -> activation
(** Raises [Invalid_argument] on unknown names. *)

type layer = {
  weights : Mat.t;  (** [d_out × d_in] *)
  biases : Vec.t;  (** length [d_out] *)
  activation : activation;
}

type t = { input_dim : int; layers : layer list }
(** Invariant (checked by [create]/[of_layers]): consecutive layer shapes
    chain, i.e. [cols weights = previous d_out]. *)

val of_layers : input_dim:int -> layer list -> t
(** Validates shape chaining; raises [Invalid_argument] otherwise. *)

val create : rng:Rng.t -> input_dim:int -> (int * activation) list -> t
(** [create ~rng ~input_dim spec] builds a network with one entry of [spec]
    per layer (width, activation), Xavier-uniform initialized. *)

val output_dim : t -> int

val hidden_widths : t -> int list

val widen : t -> factor:int -> t
(** Function-preserving widening: each hidden neuron is replicated [factor]
    times with its outgoing weights divided by [factor].  The network
    computes the same function up to floating-point association, while
    the verification problem grows with it — this is how the Table-1
    sweep scales a controller to 1000 neurons without retraining (the
    paper trains each width; the verification workload, which is what
    Table 1 measures, is preserved).  Requires a single-hidden-layer
    network. *)

val eval : t -> Vec.t -> Vec.t
(** Forward pass; raises [Invalid_argument] on input-dimension mismatch.
    Bit-identical to folding [Vec.map act (Vec.add (Mat.mul_vec w v) b)]
    over the layers, but hidden layers go through per-domain scratch
    buffers, so a call allocates only its output array. *)

val eval1 : t -> Vec.t -> float
(** Forward pass of a single-output network. *)

(** {1 Parameter vector (for policy search)} *)

val num_params : t -> int
(** Total weight + bias count.  For the paper's controller (2 inputs, one
    hidden layer of [Nh], 1 output) this is [4·Nh + 1]. *)

val get_params : t -> Vec.t
(** Row-major weights then biases, layer by layer. *)

val set_params : t -> Vec.t -> t
(** Functional update from a flat vector; raises [Invalid_argument] on
    length mismatch. *)

(** {1 Symbolic view} *)

val to_exprs : t -> Expr.t array -> Expr.t array
(** [to_exprs net inputs] is the symbolic output of the network applied to
    symbolic inputs (one expression per output neuron). *)

(** {1 Serialization} *)

val to_string : t -> string
(** Line-oriented text format, round-tripped by {!of_string}.  Weights and
    biases are written as hex floats ([%h]), so the round-trip is bit-exact
    (negative zero and subnormals included) and the string is a canonical
    content key: the certificate store fingerprints networks by hashing
    exactly this serialization (see [Artifact] in [lib/cert]). *)

val of_string : string -> t
(** Raises [Failure] on malformed input.  Accepts both hex-float and plain
    decimal weight encodings, so files written before the hex-float format
    (and hand-authored decimal files) still load. *)

val save : t -> string -> unit

val load : string -> t

(** {1 The paper's controller architecture} *)

val controller : rng:Rng.t -> hidden:int -> t
(** Two inputs [(derr, θerr)], [hidden] tansig neurons, one tansig output —
    the architecture verified in the paper's case study. *)
