(** The counterexample-guided loop of the paper's Fig. 1 (upper loop),
    shared by every engine: an LP proposes a candidate generator, δ-SAT
    queries check it, and each genuine witness becomes new LP rows.

    An engine supplies {!obligation}s — what to check and how a witness
    refines the LP.  The core owns the rest: the lazily created,
    warm-started {!Synthesis.Incremental} LP, one recorded search per
    candidate and obligation (its spurious witnesses refine δ inside it),
    the condition (5) {!cover} of the accepted candidate, the full-history
    repeated-witness guard, budget checks, the [cegis.cex_cuts] and
    [cegis.delta_refinements] counters, and the run's
    {!stats} with its {!timed} stages ([synthesis.lp] / [condition5] /
    [cex_simulation] spans).
    (The learner/verifier split of Peruffo, Ahmed and Abate,
    arXiv:2007.03251.) *)

(** The failure vocabulary of every engine, re-exported and documented as
    {!Engine.failure_reason}.  The loop itself produces [Lp_failed],
    [Cex_budget_exhausted], [Solver_inconclusive] and [Timeout]. *)
type failure_reason =
  | Lp_failed of string
  | Cex_budget_exhausted
  | Level_range_empty
  | Level_budget_exhausted
  | Solver_inconclusive of string
  | Timeout of string
  | Seed_shortfall of int * int

val string_of_failure : failure_reason -> string
(** One-line description, e.g. ["timeout: condition (5)"] or
    ["seed shortfall: 3/50"].  Every printer uses it, and it is the serve
    protocol's ["failure"] field ({!Engine.outcome_meta}). *)

(** LP rows from a witness, one {!Synthesis.Incremental} [add_*] each. *)
type cut =
  | Cex of float array  (** exact Lie-derivative cut *)
  | Trace of Ode.trace  (** subsampled trace rows *)
  | Exact_trace of Ode.trace  (** every-step trace rows *)
  | Shape_cut of float array * float array  (** [(face_point, x0_vertex)] *)

type obligation = {
  name : string;  (** stage label in [Timeout] and [Solver_inconclusive] *)
  formula : float array -> Formula.t;
      (** the δ-SAT query for candidate coefficients; Unsat discharges it *)
  violates : float array -> float array -> bool;
      (** [violates coeffs x]: the exact check at a δ-sat witness.  A
          spurious witness makes the solver refine δ inside the running
          search (÷100, at most 4 times, see {!Solver.solve_prepared}),
          then the core cuts it as a near-violation. *)
  cuts : float array -> cut list;
      (** the rows a witness adds, in order (traces are simulated here) *)
}

type stats = {
  mutable candidate_iterations : int;  (** LP + condition-(5) rounds *)
  mutable level_iterations : int;  (** level binary-search rounds *)
  mutable lp_time : float;  (** total seconds in LP solves *)
  mutable lp_calls : int;
  mutable smt5_time : float;
      (** total seconds preparing and deciding condition (5) (every
          obligation of the candidate loop) *)
  mutable smt5_calls : int;
  mutable smt5_branches : int;  (** branch-and-prune boxes over all (5) queries *)
  mutable smt67_time : float;
      (** total seconds deciding conditions (6)/(7); always
          [smt6_time +. smt7_time] *)
  mutable smt6_time : float;  (** condition-(6) share of [smt67_time] *)
  mutable smt7_time : float;  (** condition-(7) share of [smt67_time] *)
  mutable sim_time : float;
      (** trace generation — wall clock of the (possibly parallel) seed
          batch plus the sequential witness re-simulations *)
  mutable total_time : float;  (** set once, when the engine returns *)
  mutable lp_rows : int;  (** rows in the last LP *)
  mutable budget_stop : Budget.stop option;
      (** which budget limit ended the run, when the outcome is a
          [Timeout] *)
}
(** The one statistics record of a run, re-exported as {!Engine.stats}.
    Each engine creates one, and every stage adds into it in place:
    timed stages through {!timed}, counts directly. *)

val fresh_stats : unit -> stats
(** All zero, no budget stop. *)

(** The stages of the run report's time table. *)
type stage =
  | Simulation  (** [sim_time] *)
  | Lp  (** [lp_time] *)
  | Condition5  (** [smt5_time] *)
  | Condition6  (** [smt6_time] (and [smt67_time]) *)
  | Condition7  (** [smt7_time] (and [smt67_time]) *)

val timed : stats -> stage -> string -> (unit -> 'a) -> 'a
(** [timed stats stage span f] runs [f ()] inside the trace span [span]
    and adds its duration ({!Timing.now} scale) to [stage]'s seconds.
    Every stage second of every engine is measured here, around the span,
    so a stage's seconds are never less than the summed durations of its
    spans. *)

type t
(** One live loop: the LP, its row sources and the witness history, kept
    across {!run}s. *)

val create :
  stats:stats ->
  ?exact_traces:Ode.trace list ->
  budget:Budget.t ->
  synthesis:Synthesis.options ->
  smt:Solver.options ->
  max_iters:int ->
  template:Template.t ->
  field:Ode.field ->
  domain:(float * float) array ->
  Ode.trace list ->
  t
(** [domain] bounds every obligation query, per template variable.  The
    traces and [exact_traces] seed the LP. *)

val run : ?warm:float array -> t -> obligation list -> (float array, failure_reason) result
(** Candidates (at most [max_iters] per run) until every obligation is
    Unsat in order.  [warm] replaces the first LP solve.  A witness within
    1e-9 of any earlier one ends the run with [Solver_inconclusive
    "<name>: counterexample cut ineffective"] (["…: margin at solver
    resolution"] for a near-violation). *)

val refine : t -> cut -> unit
(** Add rows outside {!run} (the discrete engine's shape cuts). *)

val traces : t -> Ode.trace list
(** Witness traces, newest first, then the seeds. *)

val witnesses : t -> float array list
(** Every witness that was cut, newest first. *)

val cover : t -> Solver.cover option
(** The recorded proof of the last obligation decided, when it was Unsat.
    After {!run} returns [Ok coeffs], it is the proof of [coeffs]' last
    obligation — for a one-obligation run, the accepted candidate's
    condition (5) cover. *)

(** {1 Helpers shared by the engines} *)

val rect_bounds : string array -> (float * float) array -> (string * float * float) list

val in_rect : (float * float) array -> float array -> bool

val cex_repeated : ?tol:float -> float array list -> float array -> bool
(** Is [x] within Euclidean distance [tol] (default 1e-9) of {e any}
    accumulated witness?  Checking them all is what detects alternating
    pairs (A, B, A, …). *)

val sample_outside :
  rng:Rng.t -> domain:(float * float) array -> excluded:(float * float) array -> int ->
  float array list
(** Up to [n] uniform samples from [domain \ excluded]; fewer when [100 n]
    draws do not suffice. *)

val simulate :
  ?budget:Budget.t ->
  ?until:(float * float) array ->
  rect:(float * float) array ->
  dt:float ->
  steps:int ->
  converged:float ->
  Ode.field ->
  float array ->
  Ode.trace
(** {!Ode.simulate_rk45} trace on the [dt] grid up to [steps·dt], stopped
    once [‖x‖ < converged], on leaving [rect], at the first sample inside
    [until] (that sample kept) or at the budget's expiry; samples outside
    [rect] are dropped, keeping at least the initial state.  Up to its
    stop, a trace is bit-identical to the one without [until]. *)
