(** The plant and scenario registry: every built-in plant definition lives
    here, exactly once; every other layer (benchmarks, serve, CLI, bench)
    resolves names through it.

    {2 Plants}

    - [dubins_error] — the paper's Dubins-vehicle error dynamics over
      {!Error_dynamics}, with {!Error_dynamics.reference_controller} as
      the default and {!Error_dynamics.controller_of_width} as the width
      family.  It is the only constructor of the case study's closed loop:
      every caller goes through {!Plant.close} on {!dubins_error}.
    - [inverted_pendulum], [duffing] — the benchmarks of Zhao et al.
      (arXiv:2009.09826), each with a hand-crafted stabilizing tansig
      controller.
    - [poly_2d], [poly_3d] — Peruffo/Ahmed/Abate-style polynomial models
      (arXiv:2007.03251); [poly_3d] exercises the engine's
      dimension-genericity beyond 2-D.
    - [pendulum], [linear_2d], [van_der_pol_reversed] — the plants behind
      the historical five-system suite (damped/undamped pendulum, stable
      and saddle linear, reversed Van der Pol).

    {2 Scenarios}

    Each built-in scenario pairs a plant (+ parameters) with a controller
    and a [Should_prove]/[Should_fail] expectation, checked by
    {!Scenario.expectation_met}: the tier-1 tests run all of them at jobs 1,
    and the scenario-suite CI job at [--jobs 1,4]. *)

val dubins_error : Plant.t
(** The paper's case study (also reachable as [find_plant "dubins_error"]). *)

val plants : unit -> Plant.t list
(** All registered plants, in registration order. *)

val find_plant : string -> Plant.t option

type entry = {
  name : string;
  description : string;
  scenario : Scenario.t;  (** [scenario.expectation] is always [Some _] *)
}

val scenarios : unit -> entry list

val find_scenario : string -> entry option

val elaborate : ?network:Nn.t -> Scenario.t -> (Scenario.elaborated, string) result
(** {!Scenario.elaborate} with this registry's plant lookup: the one place
    a loaded network replaces a document's controller. *)

val document :
  ?plant:string ->
  ?width:int ->
  ?gamma:float ->
  ?lie:bool ->
  ?linear_terms:bool ->
  ?template:Template.kind ->
  ?jobs:int ->
  unit ->
  Scenario.t
(** The document CLI flags or serve request fields state: [plant] under
    its [width] controller, else its own one — with neither, the Dubins
    case study at width 10.  [false] leaves [lie]/[linear_terms] unset;
    [linear_terms] is [template = Quadratic_linear]. *)

val problem :
  ?scenario:string ->
  ?plant:string ->
  ?network:Nn.t ->
  ?width:int ->
  ?gamma:float ->
  ?lie:bool ->
  ?linear_terms:bool ->
  ?template:Template.kind ->
  ?jobs:int ->
  unit ->
  (Scenario.elaborated, string) result
(** The CLI's problem: a [scenario] file over the flags' {!document} (the
    flags fill what the file leaves unset; its plant and controller stand,
    so [plant] and [width] are ignored), elaborated with [network] as the
    controller. *)
