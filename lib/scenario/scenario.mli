(** Scenario configuration documents: one JSON object describing a complete
    verification problem — plant, parameter overrides, controller,
    rectangles, γ/δ, and solver/LP options — elaborated against a
    plant registry into an {!Engine.system} and {!Engine.config}.

    {2 File grammar}

    {v
    {"plant": "<registry name>",        required
     "name": "<string>",                optional display name
     "description": "<string>",
     "params": {"<param>": <number>},   plant parameter overrides
     "controller": "builtin" | "zero"   default "builtin"
                 | {"width": <int>}     width-family member
                 | {"path": "<file.nn>"},  relative to the scenario file
     "x0": [[lo, hi], ...],             per state variable
     "safe": [[lo, hi], ...],
     "gamma": <number>, "delta": <number>,
     "n_seed": <int>, "sim_dt": <number>, "sim_steps": <int>,
     "lie": <bool>, "linear_terms": <bool>,
     "template": "quadratic" | "quadratic_linear" | "poly:<d>",
     "jobs": <int>, "max_branches": <int>,
     "expectation": "should_prove" | "should_fail"}
    v}

    Unknown fields are rejected (a config-file typo must fail loudly, not
    silently verify something else), and every parse error names the
    offending field. *)

type expectation = Should_prove | Should_fail

val expectation_met : expectation option -> Engine.outcome -> bool
(** The one expectation rule of the scenario suite: [Should_prove] (and a
    missing expectation) needs [Proved]; [Should_fail] needs [Failed] for
    a reason about the problem, never [Timeout] or [Seed_shortfall]. *)

type controller_spec =
  | Builtin  (** the plant's bundled default controller *)
  | Zero_controller
  | Width of int
  | File of string  (** [.nn] path; {!load} anchors a relative one at the file's directory *)

type t = {
  name : string option;
  description : string option;
  plant : string;
  params : (string * float) list;
  controller : controller_spec;
  x0 : (float * float) array option;
  safe : (float * float) array option;
  gamma : float option;
  delta : float option;
  n_seed : int option;
  sim_dt : float option;
  sim_steps : int option;
  lie : bool option;
  linear_terms : bool option;
  template : Template.kind option;
      (** names the template kind outright; wins over the legacy
          [linear_terms] boolean when both are present *)
  jobs : int option;
  max_branches : int option;
  expectation : expectation option;
}

val make : plant:string -> unit -> t
(** A scenario selecting [plant] with every field defaulted ([Builtin]
    controller, no overrides). *)

val of_json : Obs.Json.t -> (t, string) result
val to_json : t -> Obs.Json.t
(** [of_json (to_json t) = Ok t] for any well-formed [t]. *)

val load : string -> (t, string) result
(** Read and parse a scenario file; errors are prefixed with the path.  A
    relative [File] controller path is rewritten relative to the file's
    directory, so the loaded document stands alone. *)

val save : string -> t -> unit

val override : t -> t -> t
(** [override base top] merges two documents of one plant: every field
    [top] sets wins over [base]'s ([Builtin] counts as unset), [top]'s
    [params] overlay [base]'s, and [template] with the legacy
    [linear_terms] is one choice, taken whole from [top] if it sets
    either.  Raises [Invalid_argument] on two plants. *)

type elaborated = {
  scenario : t;
  closed : Plant.closed;  (** plant, resolved params, controller, system *)
  config : Engine.config;
}

val elaborate :
  plants:(string -> Plant.t option) ->
  ?base:Engine.config ->
  ?network:Nn.t ->
  t ->
  (elaborated, string) result
(** Resolve the plant through [plants], the controller spec into a
    {!Plant.controller} ([Width w] equal to the bundled network's hidden
    width is the bundled network), and the option fields into a config.
    A loaded [network] replaces whatever controller the document names.
    Precedence per field: scenario value > plant default (rectangles and
    γ) or [base] value (everything else; default {!Engine.default_config}).
    Errors name the field: unknown plant, unknown parameter, rectangle
    arity mismatch, unreadable controller file, arity-mismatched
    controller. *)

val re_emit : elaborated -> t
(** The scenario as elaborated: resolved parameter values and the concrete
    rectangles/γ made explicit.  [re_emit] of an elaboration of [re_emit e]
    is [re_emit e] — emission is idempotent. *)
