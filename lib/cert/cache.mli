(** Store-backed verification: audit-on-hit caching and warm-started CEGIS.

    [verify] is {!Engine.verify} with a certificate store in front of it:

    - {b exact hit} — the problem's combined fingerprint is in the store:
      the stored artifact is first {e bound} to the live problem (its
      recorded fingerprint, plant identity, gamma, delta and rectangles
      must equal the current scenario's bit-exactly — the audit re-proves
      the conditions against the problem the artifact records, so an
      artifact rewritten for a weaker problem would otherwise audit clean)
      and then {e audited} ({!Checker.audit}, an independent re-proof);
      only a certified, problem-bound artifact is returned without running
      CEGIS.  Anything else is treated as a miss — a stale or tampered
      store can cost time, never soundness.
    - {b nearby miss} — no exact entry, but some entry shares the
      [config_hash] and [plant_hash] (same plant/parameters/rectangles/
      template/options, different network): its coefficient vector seeds
      the engine as a warm-start candidate ([Engine.verify ~warm_start]),
      skipping the LP when the stored generator still satisfies condition
      (5) on the new network.  Entries under a different plant or
      parameterization are never donors.
    - {b cold} — otherwise, plain {!Engine.verify}.

    Every fresh proof (warm or cold) is exported back into the store under
    the problem's fingerprint, so the next identical run is an exact
    hit.  The export refines the proof's condition (5) cover first
    ({!Checker.refine}, under the same [budget]; a refinement that fails
    or that the budget stops stores no cover), so that the audit of every
    later hit checks the cover's leaves with one sweep each; the returned
    report counts the refinement's seconds in [smt5_time] and
    [total_time]. *)

type source =
  | Cold
  | Cache_hit of { fingerprint : string; audit : Checker.stats }
  | Warm_started of { donor : string  (** fingerprint of the donor entry *) }

type result = {
  report : Engine.report;
      (** on a cache hit, a synthetic report: [Proved], zero LP/simulation
          stats, SMT fields holding the audit times *)
  source : source;
  fingerprint : Artifact.fingerprint;  (** of the problem that was verified *)
  exported : string option;
      (** store directory written for a fresh proof; [None] on hits and
          failures *)
}

val string_of_source : source -> string

val verify :
  ?config:Engine.config ->
  ?budget:Budget.t ->
  ?use_cache:bool ->
  ?network:Nn.t ->
  ?plant:Artifact.plant_id ->
  store:string ->
  rng:Rng.t ->
  Engine.system ->
  result
(** [use_cache = false] skips both the exact-hit lookup and the warm-start
    scan but still exports fresh proofs (the [--no-cache] CLI semantics:
    force a cold run, keep populating the store).  [network], when the
    system was built from one, strengthens the fingerprint and is stored
    alongside the artifact so [check] can re-derive the system later.
    [plant] (default {!Artifact.dubins_plant_id}) is the scenario's plant
    identity; it enters the fingerprint, the hit binding, and the exported
    artifact.  Hits are audited with {!Checker.audit}, walking with the tape. *)
