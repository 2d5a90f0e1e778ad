(** Independent certificate audit.

    [audit] re-establishes a stored certificate's validity {e without
    trusting the pipeline that produced it}: starting from the artifact
    alone it rebuilds the paper's three conditions — (5) decrease on
    [D \ X0], (6) [X0 ⊂ {W ≤ ℓ}], (7) [{W ≤ ℓ} ∩ U = ∅] — with the
    engine's own formula builders and decides each at the artifact's
    recorded δ.  The trust boundary is the formula builders, the cover
    walk and the caller-supplied system, never the CEGIS loop, the LP,
    the search, the store, or the artifact's own provenance fields: a
    verdict of [Certified] means the proof was checked from scratch.

    Each condition is certified only by a closed walk of a refined cover
    ({!Solver.replay}): splits tile the query box by construction, and
    each leaf closes with one forward sweep or the mean-value form on its
    own box, so the walk evaluates and never contracts, bisects a leaf or
    searches.  For condition (5) that is the artifact's stored cover
    ({!refine}).  Where there is none (v2 and v3 entries, exports whose
    refinement failed, and always for (6) and (7)), or the stored one does
    not close, the audit proposes a cover: a recording search at the
    artifact's δ ({!Solver.solve_prepared} [~record:true]), refined
    ({!Solver.refine}) and then walked.  The search can only refute — a
    δ-sat witness is [Condition_refuted] — or propose; a proposal that
    does not refine is [Inconclusive].  Covers are untrusted — a wrong one
    costs a proposal, never a wrong [Certified] — so the trusted base is
    the walk, its leaf tests and evaluators, and the formula builders, not
    the search (DESIGN.md §5f).

    Passing [diverse] walks every cover with [Expr.ieval]/[Expr.eval] over
    each atom and its [Expr.diff] partials instead of the compiled tape,
    so the certifying step does not even share the tape's code with the
    synthesis run that produced the artifact.

    Tampered artifacts are rejected structurally: a perturbed coefficient
    or inflated level fails one of the re-proved conditions
    ([Condition_refuted], with the refuting witness), a wrong dynamics or
    network binding fails the fingerprint recomputation
    ([Fingerprint_mismatch]), and byte-level corruption never reaches the
    checker at all (the {!Artifact} checksum rejects it at parse time). *)

type rejection =
  | Fingerprint_mismatch of { field : string; expected : string; got : string }
      (** the artifact's recorded hash does not match the hash recomputed
          from the caller-supplied system/network — the certificate binds a
          different problem *)
  | Ill_formed of string
      (** structurally unusable: variable/coefficient arity mismatch, or a
          quadratic form that is not positive definite (its sublevel sets
          are unbounded, so no level can separate anything) *)
  | Condition_refuted of { condition : int; witness : (string * float) list }
      (** re-proving condition 5, 6 or 7 produced a δ-sat witness *)
  | Inconclusive of string
      (** a re-proof query returned Unknown (budget exhausted) — the
          certificate is not condemned, but it is not certified either *)

type verdict = Certified | Rejected of rejection

val string_of_rejection : rejection -> string

val string_of_verdict : verdict -> string

type stats = {
  cond5_time : float;
  cond67_time : float;  (** [cond6_time +. cond7_time] *)
  cond6_time : float;
  cond7_time : float;
  branches : int;
      (** boxes over all three conditions: searched boxes plus walked
          cover nodes *)
  replay_nodes : int;  (** cover nodes walked, over all three conditions *)
  dropped_covers : int;
      (** stored covers the walk left open (not stopped by the budget),
          so the audit proposed its own: 0 or 1 (condition (5)) *)
  forward_leaves : int;  (** leaves closed by a forward sweep *)
  mvf_leaves : int;  (** leaves closed by the mean-value form *)
  total_time : float;
}

val audit :
  ?diverse:bool ->
  ?budget:Budget.t ->
  ?network:Nn.t ->
  system:Engine.system ->
  Artifact.t ->
  verdict * stats
(** Audit the artifact against the given closed-loop system.  [network]
    (when the caller has one, e.g. loaded from the store entry) is
    additionally checked against the artifact's [nn_hash]; artifacts
    recorded without a network ({!Artifact.no_nn}) skip that comparison.
    [diverse] defaults to [false]; [budget] defaults to unlimited.

    The walk counts are also added to the [checker.replay_nodes],
    [checker.dropped_covers], [checker.forward_leaves] and
    [checker.mvf_leaves] metric counters.

    The proposals search at [jobs = 1] on purpose, whatever the caller's
    [jobs]: the audit's main caller is a serve worker handling a store
    hit, and the serve workers already occupy the cores, so a parallel
    search per hit would only contend with them. *)

val refine : ?budget:Budget.t -> system:Engine.system -> Artifact.t -> Artifact.t
(** [refine ~system a] replaces [a]'s condition (5) cover by its
    refinement ({!Solver.refine}, on the query {!audit} poses), so that an
    audit of the result checks every leaf with one sweep.  When the
    refinement fails — a leaf the tests do not close within its bisection
    budget, a cover that does not fit, or a stop by [budget] (default
    unlimited) — the result has no cover, and an audit proposes one.  [a] is returned unchanged when it has no cover.  Call it
    on an artifact bound to [system]; it checks nothing else. *)

val exit_code : verdict -> int
(** 0 for [Certified], 1 for any rejection — the [check] subcommand's
    contract with CI. *)
