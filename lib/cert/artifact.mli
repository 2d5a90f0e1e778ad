(** Certificate artifacts: the persistent, auditable form of a proof.

    A barrier certificate [B(x) = W(x) − ℓ] proved by the engine is worth
    keeping: re-proving the three δ-SAT conditions from a stored candidate
    is far cheaper than re-running CEGIS, and a stored artifact can be
    audited by a checker that does not trust the synthesis pipeline at all
    (see {!Checker}).  This module defines the artifact value, its {e
    canonical problem fingerprint}, and a versioned line-oriented text
    serialization with bit-exact float round-trip (hex floats, IEEE bits
    for a cover's points) and
    whole-file corruption detection (a trailing checksum line).

    {2 Fingerprint}

    The fingerprint is a content hash over everything that defines the
    verification problem, split into four components so that the cache can
    distinguish "same problem" from "nearby problem":

    - [nn_hash] — digest of the controller's canonical serialization
      ({!Nn.to_string}, which is bit-exact hex floats), or {!no_nn} when
      the system was not built from a stored network;
    - [dynamics_hash] — digest of the state variables and the closed-loop
      symbolic vector field ([Expr.to_string] per component), which pins
      the plant {e and} the controller as the solver will actually see
      them;
    - [config_hash] — digest of every {!Engine.config} field that affects
      the verification {e problem} or the search semantics (rectangles, γ,
      seed counts, synthesis options, template kind, iteration bounds, δ,
      the branch bound).  Execution-strategy fields that cannot change
      the verdict — [jobs], [smt.jobs] — are deliberately
      excluded, so a certificate proved sequentially is a cache hit for a
      parallel run.
    - [plant_hash] — digest of the plant identity (registry name, semantic
      version, canonical parameter hash).  Two scenarios that happen to
      produce textually identical dynamics under different plants or
      parameterizations must never share certificates; the plant component
      makes that structural rather than accidental.

    [combined] (the content address in the {!Store}) digests the four
    components.  Two problems are {e nearby} — warm-start candidates for
    each other — when their [config_hash] {e and} [plant_hash] agree but
    [combined] differs (same plant/rectangles/template/options, different
    network). *)

type plant_id = {
  name : string;  (** registry name, e.g. ["dubins_error"]; no spaces *)
  version : string;  (** the plant's semantic version *)
  param_hash : string;
      (** digest of the resolved parameters: sorted by name, bit-exact hex
          floats, so order-insensitive and value-bit-sensitive *)
}

type fingerprint = {
  nn_hash : string;
  dynamics_hash : string;
  config_hash : string;
  plant_hash : string;
  combined : string;  (** the content address: digest of the other four *)
}

val no_nn : string
(** Placeholder [nn_hash] ("-") for systems not built from an {!Nn.t}. *)

val hash_network : Nn.t -> string

val hash_dynamics : Engine.system -> string

val plant_id : name:string -> version:string -> params:(string * float) list -> plant_id

val hash_plant : plant_id -> string

val dubins_plant_id : plant_id
(** The identity implicitly verified by every pre-scenario entry point
    (legacy CLI flags, serve requests without a [plant] field):
    [dubins_error] v1.0.0 at its default parameters [v = 1], [θ_r = 0].
    Default for the [?plant] arguments below, so legacy callers and the
    registry's [dubins_error] scenario agree on the fingerprint. *)

val fingerprint :
  ?network:Nn.t -> ?plant:plant_id -> Engine.system -> Engine.config -> fingerprint

val combine : fingerprint -> string
(** Recompute [combined] from the four component hashes (the [combined]
    field of the argument is ignored).  The checker and fsck use it to
    detect component/address tampering. *)

type t = {
  fingerprint : fingerprint;
  plant : plant_id;
  template_kind : Template.kind;
  vars : string array;
  coeffs : float array;
  level : float;
  gamma : float;  (** condition-(5) slack the proof used *)
  delta : float;  (** δ-SAT precision the proof used *)
  x0_rect : (float * float) array;
  safe_rect : (float * float) array;
  cover : Solver.cover option;
      (** the recorded proof of condition (5), which {!Checker.audit}
          replays; untrusted, like [stats] — a wrong cover costs the audit
          time, never soundness.  An export refines it first
          ({!Checker.refine}) and stores none when that fails.  [None] in
          v2 and v3 artifacts *)
  stats : (string * string) list;
      (** free-form provenance (iteration counts, wall clock, …) — carried
          for humans and dashboards, never trusted by the checker *)
  tool : string;  (** producing tool + version string *)
}

val make :
  fingerprint:fingerprint ->
  ?plant:plant_id ->
  config:Engine.config ->
  ?cover:Solver.cover ->
  ?stats:(string * string) list ->
  Engine.certificate ->
  t
(** Package a freshly proved certificate as a v4 artifact: template
    kind/variables/coeffs/ℓ come from the certificate, γ/δ/rectangles from
    the config it was proved under, the plant identity ([?plant], default
    {!dubins_plant_id}) from the scenario that posed the problem, and
    [?cover] from the engine's report ({!Engine.report.cover}). *)

val certificate : t -> Engine.certificate
(** Rebuild the in-memory certificate (re-making the template from the
    stored kind and variables). *)

val to_string : t -> string
(** Versioned line-oriented text form.  Every float is hex ([%h]) or, in a
    v4 cover, its IEEE bits, so the round-trip is bit-exact; the final line
    is [checksum <digest of every preceding line>].

    {2 Format v4}

    Header [safebarrier-cert v4], then one [key value] line per field:
    [tool], [plant <name> <version> <param-hash>], [nn-hash],
    [dynamics-hash], [config-hash], [plant-hash], [fingerprint],
    [template], [vars], [coeffs], [level], [gamma], [delta], [x0-rect],
    [safe-rect]; then, when there is a cover,

    {v
cover-delta <hex float>     the δ the cover was decided at
cover-nodes <base64>        disjunct 1's tree, preorder (Solver.tree)
cover-points <base64>       its split points, in the same order
cover-nodes ...             disjunct 2, and so on
    v}

    then the [stat] lines and the checksum.  The nodes are zigzag LEB128
    varints and the points their IEEE bits, 8 bytes little-endian, both
    in unpadded base64 (RFC 4648 alphabet).  A node is [var lsl 2] for a
    split of variable [var], [-4] for a midpoint split (no point), or [3]
    for a leaf; every node kind takes one byte.

    Only v4 is written.  v3 (v4 with an unrefined cover in decimal text)
    and v2 (no cover lines) still parse, with [cover = None]: a hit on
    such an entry searches condition (5) whole at its δ.  No version
    enters the fingerprint. *)

val of_string : string -> (t, string) result
(** Parse and validate.  [Error reason] covers checksum mismatch (any
    single-byte corruption is detected), version/format violations, and
    missing or malformed fields (a cover's lines included; a cover that
    parses but does not fit the problem is the checker's to handle).  The
    checksum is verified {e before} any field is interpreted. *)
