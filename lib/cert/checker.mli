(** Independent certificate audit.

    [audit] re-establishes a stored certificate's validity {e without
    trusting the pipeline that produced it}: starting from the artifact
    alone it rebuilds the paper's three conditions — (5) decrease on
    [D \ X0], (6) [X0 ⊂ {W ≤ ℓ}], (7) [{W ≤ ℓ} ∩ U = ∅] — with the
    engine's own formula builders and decides each with a {e fresh} solver
    instance at the artifact's recorded δ.  The trust boundary is therefore
    the formula builders + δ-SAT solver + the caller-supplied system, never
    the CEGIS loop, the LP, the store, or the artifact's own provenance
    fields: a verdict of [Certified] means the proof was reproduced from
    scratch.

    Condition (5) is checked against the artifact's recorded cover when
    it has one ({!Solver.replay}): splits tile the query box by
    construction, and each leaf of a refined cover ({!refine}) closes
    with one forward sweep or the mean-value form on its own box, so the
    check evaluates and never contracts.  At a leaf those tests leave
    open, or a split that does not fit its box, the check searches that
    disjunct whole at the cover's δ.  The cover is untrusted — a wrong
    one costs search time, never a wrong [Certified] — so it does not
    enlarge the trust boundary.  Artifacts without a cover (v2 and v3
    entries among them) are searched whole at their δ.

    Passing [engine = Solver.Tree_eval] swaps in the tree-walking
    evaluation engine as a {e diversity} backend, so the audit does not even
    share the compiled-tape code path with the synthesis run that produced
    the artifact.

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
      (** boxes over all three queries: searched boxes plus replayed
          cover nodes *)
  replay_nodes : int;  (** condition (5) cover nodes visited *)
  replay_fallbacks : int;
      (** condition (5) disjuncts the replay searched whole; 0 when the
          cover closes every leaf *)
  forward_leaves : int;  (** condition (5) leaves closed by a forward sweep *)
  mvf_leaves : int;  (** condition (5) leaves closed by the mean-value form *)
  total_time : float;
}

val audit :
  ?engine:Solver.engine ->
  ?budget:Budget.t ->
  ?network:Nn.t ->
  system:Engine.system ->
  Artifact.t ->
  verdict * stats
(** Audit the artifact against the given closed-loop system.  [network]
    (when the caller has one, e.g. loaded from the store entry) is
    additionally checked against the artifact's [nn_hash]; artifacts
    recorded without a network ({!Artifact.no_nn}) skip that comparison.
    [engine] defaults to [Tape_eval]; [budget] defaults to unlimited.

    The replay counts are also added to the [checker.replay_nodes],
    [checker.replay_fallbacks], [checker.forward_leaves] and
    [checker.mvf_leaves] metric counters.

    The re-proofs run at [jobs = 1] on purpose, whatever the caller's
    [jobs]: the audit's main caller is a serve worker handling a store
    hit, and the serve workers already occupy the cores, so a parallel
    search per hit would only contend with them. *)

val refine : ?budget:Budget.t -> system:Engine.system -> Artifact.t -> Artifact.t
(** [refine ~system a] replaces [a]'s condition (5) cover by its
    refinement ({!Solver.refine}, on the query {!audit} poses), so that an
    audit of the result checks every leaf with one sweep.  When the
    refinement fails — a leaf the tests do not close within its bisection
    budget, a cover that does not fit, or a stop by [budget] (default
    unlimited) — the result has no cover, and an audit searches condition
    (5) whole.  [a] is returned unchanged when it has no cover.  Call it
    on an artifact bound to [system]; it checks nothing else. *)

val exit_code : verdict -> int
(** 0 for [Certified], 1 for any rejection — the [check] subcommand's
    contract with CI. *)
