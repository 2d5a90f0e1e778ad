(** δ-complete satisfiability solver (the dReal substitute).

    [solve] decides whether a quantifier-free nonlinear formula has a
    solution inside a box of variable bounds:

    - [Unsat] is *sound*: the formula has no real solution in the box
      (interval arithmetic over-approximates, so nothing is missed);
    - [Delta_sat w] means the δ-weakening of the formula is satisfied at the
      witness [w] (possibly a spurious answer for the exact formula when the
      problem is ill-conditioned below δ — exactly dReal's contract);
    - [Unknown] is returned only when a resource budget is exhausted — the
      per-call branch bound, or the deadline/cancellation of a {!Budget.t}
      threaded down from the pipeline.  The cause is recorded in
      [stats.interrupted].

    The algorithm is branch-and-prune, run independently on each DNF
    disjunct, with one search policy.  Each box is contracted by rounds of
    HC4-revise over every atom, repeated only while a round shrinks some
    domain by at least 10 % (at most 10 rounds).  Each atom's midpoint
    value and gradient enclosures are then computed once; they feed the
    mean-value-form prune and certainly-true tests and the smear choice of
    the variable to bisect.

    An Unsat search can record its proof, a {!cover}; {!refine} turns it
    into a cover whose every leaf closes where it stands, and {!replay}
    checks such a cover far more cheaply than the search that found it.
    The search only proposes: a check never searches. *)

type verdict =
  | Unsat
  | Delta_sat of (string * float) list  (** witness assignment *)
  | Unknown

(** {1 Covers}

    The proof of an Unsat answer: per DNF disjunct, a bisection tree of
    the query box in preorder.  Each node is one int: a split of variable
    [var] is [var lsl 2], and every leaf is [3].  A split is followed by
    its left subtree, then its right one, and takes its point from
    [points], in the same order.  The split of variable [-1] ([-4]) is a
    {e midpoint split}: it bisects the widest variable at its midpoint and
    has no point.

    A search records splits at points and leaves its own search closed,
    some of them by HC4 contraction.  {!refine} turns that into a {e
    refined} cover: it adds midpoint splits until each leaf closes on its
    own box with one forward sweep or the mean-value form.  The packed
    layout keeps a cover pointer-free and cheap to store. *)

type tree = { nodes : int array; points : float array }

type cover = {
  delta : float;  (** the δ the Unsat was decided at, after any refinement *)
  trees : tree array;  (** one per DNF disjunct, in {!Formula.to_dnf} order *)
}

type stats = {
  branches : int;  (** boxes examined *)
  prunes : int;
      (** boxes discarded: emptied by contraction or excluded by the
          mean-value form *)
  mvf_prunes : int;  (** the share of [prunes] excluded by the mean-value form *)
  hc4_calls : int;  (** individual HC4-revise invocations *)
  max_depth : int;
  steals : int;
      (** boxes migrated between workers by the work-stealing scheduler
          (0 for sequential runs) *)
  steal_failures : int;
      (** full victim scans that found every deque empty — a proxy for
          worker idle pressure *)
  frontier_high_water : int;
      (** peak number of simultaneously open/in-flight boxes under the
          work-stealing scheduler (available parallelism high-water mark;
          0 for sequential runs) *)
  refinements : int;  (** δ refinements made for [?spurious] witnesses *)
  replay_nodes : int;  (** cover nodes visited by {!replay} (0 for a search) *)
  replay_forward : int;  (** leaves {!replay} closed by a forward enclosure *)
  replay_mvf : int;  (** leaves {!replay} closed by the mean-value form *)
  elapsed : float;  (** seconds *)
  interrupted : Budget.stop option;
      (** [Some stop] iff the search was cut short by the per-call branch
          bound or the threaded budget; the verdict is then [Unknown] *)
  cover : cover option;  (** the recorded proof of an Unsat answer, under [~record:true] *)
}

type options = {
  delta : float;  (** box-size threshold for δ-sat answers, default 1e-3 *)
  max_branches : int;  (** search budget per disjunct, default 200_000 *)
  jobs : int;
      (** domain-parallel search width, default 1 (sequential).  With
          [jobs > 1] the conjunction is searched concurrently on the global
          {!Pool} by work stealing: each worker owns a private LIFO deque
          of open boxes (depth-first locally, evaluation buffers
          cache-hot), and an idle worker steals the {e oldest} — widest,
          shallowest — box from a victim, so load follows the work
          wherever branching concentrates.  All workers share one global
          branch count continuing the query's running total, matching the
          sequential [max_branches] semantics.  The first witness (or
          budget stop) lands in a CAS-once cell that cancels the siblings,
          Unsat requires every explored box Unsat, and a budget stop in a
          witness-free merge degrades to Unknown exactly as in the
          sequential search.  The sat/unsat verdict is that of the
          sequential search, independent of [jobs] and of steal
          interleaving; only the choice of witness (among equally valid
          ones) and the stats may vary. *)
  steal_seed : int;
      (** perturbs the work-stealing victim-scan rotation; distinct seeds
          give distinct, reproducible steal interleavings (the parity
          qcheck sweeps several).  Default 0. *)
}

val default_options : options

val solve :
  ?options:options ->
  ?budget:Budget.t ->
  bounds:(string * float * float) list ->
  Formula.t ->
  verdict * stats
(** [solve ~bounds f] decides [∃x ∈ bounds. f(x)].  Variables of [f] not
    listed in [bounds], and duplicate variable names within [bounds]
    (which would silently shadow a binding), raise [Invalid_argument].

    [budget] (default {!Budget.unlimited}) is polled once per explored box;
    when its deadline passes, its branch pool drains, or its cancellation
    hook fires, the query stops promptly with [Unknown] and
    [stats.interrupted = Some stop].  A budget stop never weakens
    soundness: it can only degrade a verdict to [Unknown]. *)

(** {1 Prepared queries}

    [solve] performs two separable jobs: formula-shaped preparation
    (validation, DNF expansion, symbolic partials, tape compilation) and
    the numeric search over a concrete box.  Callers that decide the same
    formula over many different bounds — level-search bisections — can
    split them to pay preparation once, and {!replay} and {!refine} take
    the prepared form too. *)

type prepared
(** Immutable compiled form of one formula against a fixed variable order;
    safe to reuse across calls and across worker domains. *)

val prepare : ?options:options -> vars:string list -> Formula.t -> prepared
(** [prepare ~vars f] validates [f] against the variable order [vars]
    (duplicates and free variables of [f] outside [vars] raise
    [Invalid_argument], as in {!solve}) and compiles each DNF disjunct.
    This is where all [Tape.compile] calls happen: one per distinct atom,
    however many times the result is solved. *)

val solve_prepared :
  ?options:options ->
  ?budget:Budget.t ->
  ?spurious:(float array -> bool) ->
  ?record:bool ->
  prepared ->
  bounds:(string * float * float) list ->
  verdict * stats
(** [solve_prepared p ~bounds] runs the branch-and-prune search; [bounds]
    must list exactly the prepared variables in prepare-time order (else
    [Invalid_argument]).  [options] overrides the prepare-time options for
    this call.  [solve] is precisely [prepare] followed by
    [solve_prepared].

    [spurious] (default: never) is asked about each δ-sat witness, a point
    in the prepared variable order.  When it answers [true], the search
    refines δ ÷100 and re-steps that witness's box instead of answering,
    at most 4 times per query ([stats.refinements]); after the fourth, a
    witness is returned whatever [spurious] says.  Pruning and bisection
    never read δ, so this is exactly the search a restart at the refined δ
    would make, without repeating the boxes before the witness.

    [record] (default [false]) makes an Unsat answer carry its {!cover}
    in [stats.cover], at the δ it was decided at.  The tree of a box is
    filed under the box's slot, so the cover is the same for any [jobs]
    and steal interleaving. *)

val replay :
  ?diverse:bool ->
  ?budget:Budget.t ->
  prepared ->
  bounds:(string * float * float) list ->
  cover ->
  verdict * stats
(** [replay p ~bounds cover] checks the recorded [cover] of [p] over
    [bounds], and never searches.  Each tree is walked from the query box:

    - a split bisects the box at its point, which must lie strictly
      inside the variable's interval, so the two children tile their
      parent by construction; a midpoint split bisects the widest
      variable at its midpoint, which must lie strictly inside too;
    - a leaf is closed when the forward enclosure of an atom (cheapest
      atom first) excludes the atom's target, or else when the mean-value
      form excludes an atom ([stats.replay_forward], [stats.replay_mvf]).

    The answer is [Unsat] when every leaf of every tree closes.  It is
    [Unknown] at the first leaf neither test closes, the first split that
    does not fit its box, a tree that is not exactly one preorder tree of
    splits and leaves with one point per recorded split, or a tree count
    that differs from the disjunct count; [stats.interrupted] is [None]
    then.  Every visited node counts against the prepare-time
    [max_branches] and [budget] ([stats.replay_nodes]); a stop by either
    is [Unknown] with [stats.interrupted] set.  The walk never bisects a
    leaf and never calls HC4, and it never answers [Delta_sat].

    The cover is untrusted: every leaf ends in a sound refutation of its
    box and the splits tile the query box, so a tampered cover can only
    leave the walk open.

    [diverse] (default [false]) evaluates the leaves with [Expr.ieval]
    and [Expr.eval] over each atom and its [Expr.diff] partials instead of
    the compiled tape: the same interval kernels, not the same code. *)

val refine :
  ?budget:Budget.t -> prepared -> bounds:(string * float * float) list -> cover -> cover option
(** [refine p ~bounds cover] walks [cover] as {!replay} does, but where
    the check stays open, it bisects the open leaf at the midpoint of
    its widest variable and tests each half, up to a fixed budget of 256
    nodes per leaf.  It returns the cover the walk closed, with those
    bisections as midpoint splits, so {!replay} closes every leaf of it
    where it stands; refining such a cover returns it unchanged.  It
    returns [None] at the first leaf still open after its budget, at the
    first split that does not fit its box, for a malformed or mismatched
    tree, and when [budget] (default unlimited) or [max_branches] stops
    it.  It never searches. *)

val pp_verdict : Format.formatter -> verdict -> unit
