(** First-class plants: the open-loop half of a verification scenario.

    A plant is a named, versioned, parameterized vector field with explicit
    controller input slots.  Closing the loop — splicing a controller into
    the slots, both numerically (for simulation) and symbolically (for the
    δ-SAT conditions) — yields the {!Engine.system} the engine verifies.
    Everything the engine layer already treats generically (templates,
    level search, the solver) works for any state dimension; this module is
    the missing construction step, and {!Registry} is where the concrete
    plants live.

    {2 Identity}

    A plant's identity is its registry name, semantic version, and the
    bit-exact values of its resolved parameters ({!Artifact.plant_id}).
    The identity enters the certificate fingerprint, so certificates can
    never migrate between plants, versions, or parameterizations — not
    even when two plants happen to produce textually identical closed-loop
    dynamics. *)

type controller =
  | Network of Nn.t
      (** a feedforward controller; spliced symbolically via
          {!Nn.to_exprs} and numerically via {!Nn.eval} *)
  | Analytic of { label : string; exprs : Expr.t array }
      (** hand-written control laws over the plant's state variables;
          [label] distinguishes them in descriptions *)
  | Zero  (** open loop: every slot is the constant 0 *)

type t = {
  name : string;  (** registry name; no spaces *)
  version : string;  (** bumped whenever the field or defaults change *)
  description : string;
  vars : string array;  (** state variable names, fixing coordinate order *)
  control_dim : int;  (** number of controller input slots *)
  params : (string * float) list;
      (** parameter names with default values, canonical order *)
  symbolic_field : get:(string -> float) -> u:Expr.t array -> Expr.t array;
      (** the open-loop field as expressions over [vars]; [get] resolves a
          parameter by name, [u] supplies one expression per control slot *)
  numeric_field :
    (get:(string -> float) -> controller:(float array -> float array) -> Ode.field) option;
      (** optional hand-written numeric field (e.g. [dubins_error]
          delegates to [Error_dynamics] for bit-compatibility with the
          pre-registry pipeline).  When [None], the numeric field
          evaluates the closed-loop symbolic expressions through tapes
          compiled once at {!close} (bit-identical to [Expr.eval]), so the
          deployed implementation equals the verified model by
          construction. *)
  controller_of_width : (int -> Nn.t) option;
      (** optional width-parameterized controller family (the Dubins
          benchmark sweep); may raise [Invalid_argument] on bad widths *)
  default_controller : controller;
      (** the bundled stabilizing controller ("builtin" in scenario files) *)
  default_x0 : (float * float) array;
  default_safe : (float * float) array;
  default_gamma : float;
}

val identity : t -> params:(string * float) list -> Artifact.plant_id
(** The fingerprint identity for this plant at fully resolved parameters. *)

val controller_label : controller -> string

val widened_default : t -> int -> (Nn.t, string) result
(** The width-[n] member of the plant's controller family:
    [controller_of_width] when the plant provides one, otherwise the
    default [Network] controller widened by neuron duplication
    ({!Nn.widen}).  [Error] when the plant has
    no width-parameterized family or the width does not divide evenly. *)

type closed = {
  plant : t;
  params : (string * float) list;  (** resolved, canonical order *)
  controller : controller;
  network : Nn.t option;  (** the [Nn.t] of a [Network] controller, for store export *)
  id : Artifact.plant_id;
  system : Engine.system;
}

val close : ?params:(string * float) list -> t -> controller -> (closed, string) result
(** Compose the closed loop.  Validates parameters (overrides of the
    defaults, canonical order; an unknown one is an error naming it) and
    controller arity — a [Network] must map the full state to exactly
    [control_dim] outputs, [Analytic] expressions must number
    [control_dim] and mention only plant variables — then splices the
    controller into the field symbolically and numerically, compiling the
    point evaluators simulation uses (DESIGN.md §5n).  A symbolic field
    that mentions a name outside [vars] is an error.  Every error names
    the plant and the offending piece. *)

val close_exn : ?params:(string * float) list -> t -> controller -> closed
(** [close], raising [Invalid_argument] — for registry-internal plants
    whose composition is statically known to be well-formed. *)

val default_engine_config : t -> Engine.config
(** {!Engine.default_config} with the plant's default rectangles and γ
    substituted. *)
