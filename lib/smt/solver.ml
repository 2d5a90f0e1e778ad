type verdict = Unsat | Delta_sat of (string * float) list | Unknown

type tree = { nodes : int array; points : float array }

type cover = { delta : float; trees : tree array }

type stats = {
  branches : int;
  prunes : int;
  mvf_prunes : int;
  hc4_calls : int;
  max_depth : int;
  steals : int;
  steal_failures : int;
  frontier_high_water : int;
  refinements : int;
  replay_nodes : int;
  replay_forward : int;
  replay_mvf : int;
  elapsed : float;
  interrupted : Budget.stop option;
  cover : cover option;
}

type options = {
  delta : float;
  max_branches : int;
  jobs : int;
  steal_seed : int;
}

let default_options =
  {
    delta = 1e-3;
    max_branches = 200_000;
    jobs = 1;
    steal_seed = 0;
  }

(* Cover nodes: a split has its variable above two zero low bits
   ([var lsl 2]); the split of variable -1 bisects the widest variable at
   its midpoint, with no recorded point; every leaf is the one node 3. *)
let is_split node = node land 3 = 0
let node_midpoint = -1 lsl 2
let node_leaf = 3

(* How one box of a recording search ended, under the slot the box was
   given when its parent split (the root's slot is 0).  A split names its
   children's slots, so the preorder tree can be rebuilt however the
   drivers interleaved the boxes. *)
type record = Leaf | Split of int * float * int * int  (* var, point, left, right *)

type search_state = {
  mutable branches : int;
  mutable prunes : int;
  mutable mvf_prunes : int;
  mutable hc4_calls : int;
  mutable max_depth : int;
  mutable steals : int;
  mutable steal_failures : int;
  mutable frontier_hw : int;
  mutable replay_nodes : int;
  mutable replay_forward : int;
  mutable replay_mvf : int;
  mutable records : (int * record) list;
}

let fresh_state () =
  {
    branches = 0;
    prunes = 0;
    mvf_prunes = 0;
    hc4_calls = 0;
    max_depth = 0;
    steals = 0;
    steal_failures = 0;
    frontier_hw = 0;
    replay_nodes = 0;
    replay_forward = 0;
    replay_mvf = 0;
    records = [];
  }

let merge_state st s =
  st.branches <- st.branches + s.branches;
  st.prunes <- st.prunes + s.prunes;
  st.mvf_prunes <- st.mvf_prunes + s.mvf_prunes;
  st.hc4_calls <- st.hc4_calls + s.hc4_calls;
  if s.max_depth > st.max_depth then st.max_depth <- s.max_depth;
  st.steals <- st.steals + s.steals;
  st.steal_failures <- st.steal_failures + s.steal_failures;
  if s.frontier_hw > st.frontier_hw then st.frontier_hw <- s.frontier_hw;
  st.records <- List.rev_append s.records st.records

(* Per-task runtime view of one atom: the search and the walk below are
   written against this record only, so a walk can evaluate its leaves
   with the tape or with [Expr] trees.  The closures own whatever mutable
   evaluation state they need, which is why an [atom_rt] must not be
   shared across tasks — only the immutable tapes behind it are. *)
type atom_rt = {
  atom : Formula.atom;
  size : int;  (* Expr.size of the atom, for the smear-atom choice *)
  n_partials : int;
  revise : Interval.t array -> bool;  (* raises Tape.Empty_box *)
  forward : Interval.t array -> Interval.t;  (* forward enclosure of the atom alone *)
  partials : Interval.t array -> Interval.t array;
      (* enclosures of the partials, indexed by variable, over the domains
         of the last [forward]: with the tape the sweep continues over the
         partial slots, sharing every node the atom computed *)
  eval_mid : float array -> float;  (* point evaluation, indexed by variable *)
}

(* The tape engine sweeps each box's atom once.  [swept] holds the domains
   of the last forward sweep over [b], which a [revise] runs before it
   narrows anything.  When the domains [forward] is asked about are those,
   element by element, the enclosure is still in [b] and is read there:
   [Interval.t] is immutable and [revise] replaces an element only when it
   narrows it, so physical equality means the same bounds.  After
   [contract], that holds for every atom no later [revise] narrowed. *)
let tape_rt ((a : Formula.atom), tape) =
  let b = Tape.make_buffers tape in
  let swept = ref [||] in
  let remember domains =
    if Array.length !swept = Array.length domains then
      Array.blit domains 0 !swept 0 (Array.length domains)
    else swept := Array.copy domains
  in
  let n_partials = Tape.n_partials tape in
  {
    atom = a;
    size = Expr.size a.Formula.expr;
    n_partials;
    revise =
      (fun domains ->
        remember domains;
        Tape.revise tape b domains);
    forward =
      (fun domains ->
        if Array.length !swept = Array.length domains && Array.for_all2 ( == ) !swept domains then
          Tape.atom_ival tape b
        else begin
          remember domains;
          Tape.forward tape b domains
        end);
    partials =
      (fun domains ->
        Tape.forward_partials tape b domains;
        Array.init n_partials (Tape.partial_ival tape b));
    eval_mid = (fun x -> Tape.eval_point tape b x);
  }

(* The diverse walk's view of an atom: [Expr.ieval] and [Expr.eval] over
   the atom and its [Expr.diff] partials.  The kernels are the tape's, the
   code that runs them is not, and test_tape checks the two bit for bit.
   A walk never contracts, so nothing calls [revise]. *)
let expr_rt ~index_of (a : Formula.atom) partial_exprs =
  let ieval domains e = Expr.ieval (fun v -> domains.(index_of v)) e in
  {
    atom = a;
    size = Expr.size a.Formula.expr;
    n_partials = Array.length partial_exprs;
    revise = (fun _ -> invalid_arg "Solver: a walk never contracts");
    forward = (fun domains -> ieval domains a.Formula.expr);
    partials = (fun domains -> Array.map (ieval domains) partial_exprs);
    eval_mid = (fun x -> Expr.eval (fun v -> x.(index_of v)) a.Formula.expr);
  }

(* Atom satisfiable somewhere in the box, from the forward enclosure alone. *)
let possibly_sat (atom : Formula.atom) ival =
  (not (Interval.is_empty ival))
  &&
  match atom.rel with
  | Formula.Le0 | Formula.Lt0 -> Interval.lo ival <= 0.0
  | Formula.Eq0 -> Interval.mem 0.0 ival

(* Atom satisfied everywhere in the box, from the forward enclosure alone. *)
let certainly_holds (atom : Formula.atom) ival =
  (not (Interval.is_empty ival))
  &&
  match atom.rel with
  | Formula.Le0 -> Interval.hi ival <= 0.0
  | Formula.Lt0 -> Interval.hi ival < 0.0
  | Formula.Eq0 -> Interval.lo ival = 0.0 && Interval.hi ival = 0.0

exception Pruned

(* A fixpoint round that shrinks no domain below this fraction of its
   width at the start of the round ends the fixpoint: the next round would
   cost a full sweep of every atom for a marginal gain.  This is the
   ratio rule of ibex's CtcFixPoint (default ratio 0.1), per domain. *)
let fixpoint_ratio = 0.9

(* Contract [domains] in place by rounds of HC4 [revise] over every atom,
   at most 10, while a round still pays (see [fixpoint_ratio]); raises
   Pruned on emptiness. *)
let contract st domains rts =
  let rec round k =
    let start = Array.map Interval.width domains in
    List.iter
      (fun rt ->
        st.hc4_calls <- st.hc4_calls + 1;
        match rt.revise domains with
        | (_ : bool) -> ()
        | exception Tape.Empty_box -> raise Pruned)
      rts;
    let paid = ref false in
    Array.iteri
      (fun i d -> if Interval.width d < fixpoint_ratio *. start.(i) then paid := true)
      domains;
    if !paid && k < 10 then round (k + 1)
  in
  round 1

let holds_delta delta rel v =
  Float.is_finite v
  && (match rel with Formula.Le0 | Formula.Lt0 -> v <= delta | Formula.Eq0 -> Float.abs v <= delta)

(* Decide one DNF disjunct (a conjunction of atoms) by branch-and-prune.
   Returns a witness option; Unknown is signalled by exception. *)
exception Budget_exhausted of Budget.stop

(* Symbolic partial derivatives of each nontrivial atom, used for
   mean-value-form bounds (quadratic-convergence enclosures) and smear
   branching.  Pure expressions, hoisted out of the (per-subbox, per-domain)
   search so the expensive [Expr.diff] of e.g. a deep NN composite runs once
   per query, not once per parallel task.  Tiny box-membership atoms gain
   nothing from partials and get [[||]]. *)
let partials_of names (a : Formula.atom) =
  if Expr.size a.Formula.expr < 4 then [||]
  else Array.map (fun v -> Expr.diff v a.Formula.expr) names

(* What the search needs to know about one atom on a contracted box,
   computed once per box from one midpoint evaluation and one forward
   sweep of the atom and its partials:
   - [e_mid], the atom's value at the box midpoint;
   - [grads], its gradient enclosures indexed by variable ([[||]] for
     atoms without partials), for the smear choice;
   - [refuted], the mean-value (centered) form
     e(x) ∈ e(mid) + Σᵢ ∂e/∂xᵢ(box)·(xᵢ − midᵢ), with a relative fudge
     for the float evaluation of e(mid), excludes the atom on the box;
   - [holds], the forward enclosure or the mean-value form shows the atom
     holds on the whole box. *)
type atom_eval = { e_mid : float; grads : Interval.t array; refuted : bool; holds : bool }

(* The mean-value (centered) form of an atom with partials over a box,
   e(x) ∈ e(mid) + Σᵢ ∂e/∂xᵢ(box)·(xᵢ − midᵢ), widened by a relative
   fudge for the float evaluation of e(mid); [None] when e(mid) is not
   finite or a gradient enclosure is empty or unbounded. *)
let mean_value domains e_mid grads =
  if not (Float.is_finite e_mid) then None
  else begin
    let rad = ref 0.0 in
    try
      Array.iteri
        (fun i grad ->
          let w = Interval.width domains.(i) in
          if w > 0.0 then begin
            if Interval.is_empty grad then raise Exit;
            let mag = Float.max (Float.abs (Interval.lo grad)) (Float.abs (Interval.hi grad)) in
            if not (Float.is_finite mag) then raise Exit;
            rad := !rad +. (mag *. 0.5 *. w)
          end)
        grads;
      let fudge = 1e-9 *. (1.0 +. Float.abs e_mid) in
      Some (e_mid -. !rad -. fudge, e_mid +. !rad +. fudge)
    with Exit -> None
  end

(* The mean-value form excludes the atom. *)
let mvf_refutes (atom : Formula.atom) = function
  | None -> false
  | Some (lo, hi) -> (
    match atom.rel with
    | Formula.Le0 | Formula.Lt0 -> lo > 0.0
    | Formula.Eq0 -> lo > 0.0 || hi < 0.0)

let evaluate domains mid rt =
  let e_mid = rt.eval_mid mid in
  let range = rt.forward domains in
  let grads = rt.partials domains in
  let mvf = if rt.n_partials = 0 then None else mean_value domains e_mid grads in
  let mvf_holds =
    match (mvf, rt.atom.Formula.rel) with
    | None, _ | Some _, Formula.Eq0 -> false
    | Some (_, hi), Formula.Le0 -> hi <= 0.0
    | Some (_, hi), Formula.Lt0 -> hi < 0.0
  in
  {
    e_mid;
    grads;
    refuted = mvf_refutes rt.atom mvf;
    holds = certainly_holds rt.atom range || mvf_holds;
  }

(* One expansion step of the branch-and-prune search: everything that
   happens to a box after it is claimed — contraction, MVF pruning, the
   three witness tests and bisection.  Both drivers (sequential and
   work-stealing) call this same closure, so the verdict logic cannot
   drift between them: a driver merely chooses the order in which boxes
   are expanded.  A box carries its cover slot ([-1] when the search does
   not record). *)
type box = { dom : Interval.t array; depth : int; slot : int }

type step =
  | Step_pruned
  | Step_witness of float array
  | Step_split of box * box  (* left, right *)

(* What every box of one disjunct's search shares: the options, the
   budget, the witness oracle with the δ-refinement level it drives, and
   the slot counter of a recording search.  The level is query-wide (the
   disjuncts after a refinement run at the refined δ, as a restarted
   search would); the slots are per disjunct. *)
type query = {
  opts : options;
  budget : Budget.t;
  spurious : float array -> bool;
  deltas : float array;  (* δ after k refinements, k = 0 .. max_refinements *)
  level : int Atomic.t;
  slots : int Atomic.t option;
}

let max_refinements = 4

let make_stepper q st rts =
  (* Smear branching (dReal's heuristic): bisect the variable with the
     largest width × |∂e/∂x| for the largest atom with partials, or the
     widest variable when no atom has partials. *)
  let smear =
    List.fold_left
      (fun best rt ->
        if rt.n_partials = 0 then best
        else begin
          match best with
          | Some b when b.size >= rt.size -> best
          | _ -> Some rt
        end)
      None rts
  in
  let pick_split_var domains evals =
    let widest () =
      let best = ref 0 and best_w = ref (Interval.width domains.(0)) in
      Array.iteri
        (fun i d ->
          let w = Interval.width d in
          if w > !best_w then begin
            best := i;
            best_w := w
          end)
        domains;
      !best
    in
    match smear with
    | None -> widest ()
    | Some rt ->
      let best = ref (-1) and best_score = ref neg_infinity in
      Array.iteri
        (fun i grad ->
          let w = Interval.width domains.(i) in
          if w > 0.0 then begin
            let mag =
              if Interval.is_empty grad then 0.0
              else Float.min 1e12 (Float.max (Float.abs (Interval.lo grad)) (Float.abs (Interval.hi grad)))
            in
            let score = w *. Float.max mag 1e-9 in
            if score > !best_score then begin
              best := i;
              best_score := score
            end
          end)
        (List.assq rt evals).grads;
      if !best < 0 then widest () else !best
  in
  let record slot r = if slot >= 0 then st.records <- (slot, r) :: st.records in
  let fresh_slots () =
    match q.slots with
    | None -> (-1, -1)
    | Some next ->
      let s = Atomic.fetch_and_add next 2 in
      (s, s + 1)
  in
  fun ~delta box ->
    if box.depth > st.max_depth then st.max_depth <- box.depth;
    (* Contract a copy: a box re-stepped after a δ refinement starts again
       from its uncontracted domains, exactly as a restarted search. *)
    let domains = Array.copy box.dom in
    match contract st domains rts with
    | exception Pruned ->
      st.prunes <- st.prunes + 1;
      record box.slot Leaf;
      Step_pruned
    | () ->
      let mid = Array.map Interval.midpoint domains in
      let evals = List.map (fun rt -> (rt, evaluate domains mid rt)) rts in
      if List.exists (fun (_, ev) -> ev.refuted) evals then begin
        st.prunes <- st.prunes + 1;
        st.mvf_prunes <- st.mvf_prunes + 1;
        record box.slot Leaf;
        Step_pruned
      end
      else if List.for_all (fun (_, ev) -> ev.holds) evals then Step_witness mid
      else if List.for_all (fun (rt, ev) -> holds_delta delta rt.atom.Formula.rel ev.e_mid) evals
      then Step_witness mid
      else begin
        let max_w = Array.fold_left (fun w i -> Float.max w (Interval.width i)) 0.0 domains in
        if max_w <= delta then Step_witness mid
        else begin
          let split_var = pick_split_var domains evals in
          let left, right = Interval.split domains.(split_var) in
          let s1, s2 = fresh_slots () in
          record box.slot (Split (split_var, Interval.hi left, s1, s2));
          let child slot half =
            let d = Array.copy domains in
            d.(split_var) <- half;
            { dom = d; depth = box.depth + 1; slot }
          in
          Step_split (child s1 left, child s2 right)
        end
      end

let witness_of names mid =
  Delta_sat (Array.to_list (Array.mapi (fun i n -> (n, mid.(i))) names))

(* A δ-sat witness the caller's oracle calls spurious is not an answer:
   the search refines δ ÷100 and re-steps the witness's box.  Nothing but
   the witness tests reads δ, and a box that is no witness at δ is none at
   δ/100 either, so every box before it would have gone the same way in a
   search restarted at δ/100 — the refined search is that restart, minus
   the repeated prefix. *)
let refine_here q level mid = level < max_refinements && q.spurious mid

let solve_conjunction q st names rts initial =
  let step = make_stepper q st rts in
  let stack = ref [ initial ] in
  let result = ref None in
  (* Budget_exhausted escapes to [solve_prepared], which owns the per-query
     stats. *)
  while !result = None && !stack <> [] do
    match !stack with
    | [] -> ()
    | box :: rest ->
      stack := rest;
      st.branches <- st.branches + 1;
      if st.branches + st.replay_nodes > q.opts.max_branches then
        raise (Budget_exhausted Budget.Branch_budget);
      (* The budget is the wall-clock/cancellation control threaded down
         from the pipeline; [max_branches] above is the per-call search
         bound.  Both surface as Unknown, tagged in [stats.interrupted]. *)
      (match Budget.consume_branches q.budget 1 with
      | Some s -> raise (Budget_exhausted s)
      | None -> ());
      let level = Atomic.get q.level in
      (match step ~delta:q.deltas.(level) box with
      | Step_pruned -> ()
      | Step_witness mid when refine_here q level mid ->
        Atomic.set q.level (level + 1);
        stack := box :: !stack
      | Step_witness mid -> result := Some mid
      | Step_split (left, right) -> stack := left :: right :: !stack)
  done;
  match !result with
  | Some mid -> witness_of names mid
  | None -> Unsat

(* Dynamic work-stealing driver (the default for [jobs > 1]).

   Topology: one private deque of open boxes per worker.  The owner treats
   its deque as a LIFO stack — depth-first locally, so per-task evaluation
   buffers stay cache-hot — while a thief removes the OLDEST entry: the
   widest, shallowest box, which carries the most remaining subtree, so
   steals are rare and coarse-grained.

   Termination and Unsat soundness hinge on the [live] counter: it counts
   boxes that are open in some deque OR in flight (claimed but not yet
   expanded).  It grows before new children become visible to thieves and
   shrinks only after a claimed box's fate is settled, so [live = 0]
   proves the initial box is fully covered by pruned/decided leaves —
   exactly the condition under which the merge may answer Unsat.  The
   first witness (or budget stop) lands in a CAS-once cell that doubles as
   the cancellation epoch: workers poll it between boxes and drain out
   promptly.

   Verdict determinism: stealing only permutes the order in which open
   boxes are expanded, and every verdict-relevant decision (the stepper)
   is a pure function of the box, so on runs that decide (no budget stop)
   the Sat/Unsat answer is identical across [jobs] and [steal_seed] and
   equal to the sequential search's; only which witness is reported
   (among equally valid ones), the stats and the steal counters may vary.

   The workers share one global branch count continuing the query's
   running total, matching the sequential [max_branches] bound.  A δ
   refinement moves the shared level once (compare-and-set from the level
   the witness was found at) and re-queues the box; a recording search
   files each box's record under its slot, so the merged tree is the
   sequential one. *)

type wdeque = {
  dq_lock : Mutex.t;
  mutable dq_boxes : box list; (* front = newest *)
}

let solve_conjunction_steal q st names make_rts initial =
  let jobs = q.opts.jobs in
  let deques = Array.init jobs (fun _ -> { dq_lock = Mutex.create (); dq_boxes = [] }) in
  deques.(0).dq_boxes <- [ initial ];
  let live = Atomic.make 1 in
  let frontier_hw = Atomic.make 1 in
  let branch_total = Atomic.make (st.branches + st.replay_nodes) in
  let witness : float array option Atomic.t = Atomic.make None in
  let stopped : Budget.stop option Atomic.t = Atomic.make None in
  let is_some cell = match Atomic.get cell with Some _ -> true | None -> false in
  let halted () = is_some witness || is_some stopped in
  let rec set_once cell v =
    match Atomic.get cell with
    | Some _ -> ()
    | None -> if not (Atomic.compare_and_set cell None (Some v)) then set_once cell v
  in
  let pop_own dq =
    Mutex.lock dq.dq_lock;
    let r =
      match dq.dq_boxes with
      | [] -> None
      | b :: rest ->
        dq.dq_boxes <- rest;
        Some b
    in
    Mutex.unlock dq.dq_lock;
    r
  in
  let push_children dq children =
    Mutex.lock dq.dq_lock;
    dq.dq_boxes <- children @ dq.dq_boxes;
    Mutex.unlock dq.dq_lock
  in
  let steal_oldest dq =
    Mutex.lock dq.dq_lock;
    let r =
      match dq.dq_boxes with
      | [] -> None
      | boxes ->
        let rec go acc = function
          | [ oldest ] ->
            dq.dq_boxes <- List.rev acc;
            Some oldest
          | b :: tl -> go (b :: acc) tl
          | [] -> None
        in
        go [] boxes
    in
    Mutex.unlock dq.dq_lock;
    r
  in
  let box_done () = ignore (Atomic.fetch_and_add live (-1) : int) in
  let bump_frontier () =
    let l = Atomic.get live in
    let rec go () =
      let hw = Atomic.get frontier_hw in
      if l > hw && not (Atomic.compare_and_set frontier_hw hw l) then go ()
    in
    go ()
  in
  let run wid =
    Obs.Trace.with_span "solver.worker" @@ fun () ->
    let st_l = fresh_state () in
    let step = make_stepper q st_l (make_rts ()) in
    let my = deques.(wid) in
    (* Seeded victim rotation: distinct [steal_seed]s give distinct (but
       reproducible) steal interleavings, which the qcheck parity property
       sweeps. *)
    let victims =
      let off = (((q.opts.steal_seed * 31) + (wid * 17)) mod jobs + jobs) mod jobs in
      Array.init jobs (fun i -> (wid + off + i) mod jobs)
      |> Array.to_list
      |> List.filter (fun v -> v <> wid)
      |> Array.of_list
    in
    let try_steal () =
      let found = ref None in
      let i = ref 0 in
      while !found = None && !i < Array.length victims do
        (match steal_oldest deques.(victims.(!i)) with
        | Some b ->
          st_l.steals <- st_l.steals + 1;
          found := Some b
        | None -> ());
        incr i
      done;
      if !found = None then st_l.steal_failures <- st_l.steal_failures + 1;
      !found
    in
    let obtain () =
      match pop_own my with
      | Some b -> Some b
      | None -> (
        match try_steal () with
        | Some b -> Some b
        | None ->
          if halted () || Atomic.get live = 0 then None
          else
            (* Out of work while the search is still live: spin-steal with
               backoff (mostly asleep, so a few idle workers cannot starve
               a busy one on a small machine).  The span makes per-worker
               idle time measurable from the trace. *)
            Obs.Trace.with_span "solver.steal_idle" (fun () ->
                let res = ref None in
                let waiting = ref true in
                let spins = ref 0 in
                while !waiting do
                  if halted () || Atomic.get live = 0 then waiting := false
                  else begin
                    match try_steal () with
                    | Some b ->
                      res := Some b;
                      waiting := false
                    | None ->
                      incr spins;
                      if !spins land 63 = 0 then Unix.sleepf 2e-4
                      else Domain.cpu_relax ()
                  end
                done;
                !res))
    in
    let body () =
      let running = ref true in
      while !running do
        if halted () then running := false
        else begin
          match obtain () with
          | None -> running := false
          | Some box ->
            st_l.branches <- st_l.branches + 1;
            let claimed = Atomic.fetch_and_add branch_total 1 in
            if claimed >= q.opts.max_branches then begin
              set_once stopped Budget.Branch_budget;
              box_done ()
            end
            else begin
              match Budget.consume_branches q.budget 1 with
              | Some s ->
                set_once stopped s;
                box_done ()
              | None -> (
                let level = Atomic.get q.level in
                match step ~delta:q.deltas.(level) box with
                | Step_pruned -> box_done ()
                | Step_witness mid when refine_here q level mid ->
                  ignore (Atomic.compare_and_set q.level level (level + 1) : bool);
                  (* still open: [live] already counts it *)
                  push_children my [ box ]
                | Step_witness mid ->
                  set_once witness mid;
                  box_done ()
                | Step_split (left, right) ->
                  (* Grow [live] before the children are visible so a
                     thief can never observe an empty system while work
                     remains in flight. *)
                  ignore (Atomic.fetch_and_add live 1 : int);
                  push_children my [ left; right ];
                  bump_frontier ())
            end
        end
      done
    in
    (* Any escaping exception is re-raised to the submitter by the pool;
       flag the epoch first so sibling workers drain instead of spinning
       on [live > 0] forever. *)
    (try body ()
     with e ->
       set_once stopped Budget.Cancelled;
       raise e);
    st_l
  in
  let sts = Pool.parallel_map ~jobs run (Array.init jobs (fun i -> i)) in
  Array.iter (fun s -> merge_state st s) sts;
  if Atomic.get frontier_hw > st.frontier_hw then st.frontier_hw <- Atomic.get frontier_hw;
  match Atomic.get witness with
  | Some mid -> witness_of names mid
  | None -> (
    match Atomic.get stopped with
    | Some stop -> raise (Budget_exhausted stop)
    | None -> Unsat)

let solve_conjunction_par q st names make_rts initial =
  if q.opts.jobs <= 1 then solve_conjunction q st names (make_rts ()) initial
  else solve_conjunction_steal q st names make_rts initial

(* Prepared queries: the formula-shaped work of [solve] — validation, DNF
   expansion, symbolic differentiation, tape compilation — factored out so
   callers that decide the same formula over many different bounds (level
   search bisections) or check a recorded cover pay it once.  A [prepared]
   value is immutable and safe to reuse across calls and worker domains;
   per-task evaluation state is created inside each [solve_prepared]. *)

type prepared = {
  p_options : options;
  p_names : string array;
  p_index_of : string -> int;
  p_disjuncts : (Formula.atom * Tape.t) list list;  (* each atom with its one tape *)
}

let prepare ?(options = default_options) ~vars formula =
  Obs.Trace.with_span "solver.prepare" @@ fun () ->
  let names = Array.of_list vars in
  let index = Hashtbl.create 16 in
  Array.iteri
    (fun i n ->
      if Hashtbl.mem index n then
        invalid_arg (Printf.sprintf "Solver.solve: duplicate bounds for variable %s" n);
      Hashtbl.add index n i)
    names;
  let index_of n =
    match Hashtbl.find_opt index n with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Solver.solve: variable %s has no bounds" n)
  in
  List.iter (fun v -> ignore (index_of v : int)) (Formula.free_vars formula);
  (* Each atom (with its partials) is compiled ONCE per prepare — the
     tapes are immutable and shared by every parallel task and every later
     [solve_prepared], which only allocate their own evaluation buffers.
     An atom shared by several disjuncts — condition (5)'s decrease atom
     is in every one — is differentiated and compiled once; [to_dnf]
     shares it physically. *)
  let seen = ref [] in
  let compile (a : Formula.atom) =
    match List.assq_opt a !seen with
    | Some r -> r
    | None ->
      let r = (a, Tape.compile ~index_of ~partials:(partials_of names a) a) in
      seen := (a, r) :: !seen;
      r
  in
  {
    p_options = options;
    p_names = names;
    p_index_of = index_of;
    p_disjuncts = List.map (List.map compile) (Formula.to_dnf formula);
  }

(* The preorder tree of one recorded Unsat disjunct, from its records
   filed by slot: a split emits its node and point, then its left and its
   right subtree. *)
let build_tree ~n_slots records =
  let table = Array.make n_slots None in
  List.iter (fun (slot, r) -> table.(slot) <- Some r) records;
  let nodes = ref [] and points = ref [] in
  let rec emit slot =
    match table.(slot) with
    | None -> failwith "Solver: a box of an Unsat search left no cover record"
    | Some Leaf -> nodes := node_leaf :: !nodes
    | Some (Split (var, point, left, right)) ->
      nodes := (var lsl 2) :: !nodes;
      points := point :: !points;
      emit left;
      emit right
  in
  emit 0;
  { nodes = Array.of_list (List.rev !nodes); points = Array.of_list (List.rev !points) }

(* Exactly one preorder tree of splits and leaves, with one point per
   split at a recorded point (a midpoint split has none). *)
let well_formed t =
  let open_slots = ref 1 and points = ref 0 in
  Array.for_all
    (fun node ->
      !open_slots > 0
      && (is_split node || node = node_leaf)
      && begin
        decr open_slots;
        if is_split node then begin
          open_slots := !open_slots + 2;
          if node <> node_midpoint then incr points
        end;
        true
      end)
    t.nodes
  && !open_slots = 0
  && !points = Array.length t.points

exception Open

(* Nodes a refinement may visit bisecting one leaf. *)
let leaf_budget = 256

(* The widest variable of a box and its midpoint, when the midpoint lies
   strictly inside the variable's interval (a degenerate width has none). *)
let midpoint_split domains =
  let var = ref 0 in
  Array.iteri
    (fun i d -> if Interval.width d > Interval.width domains.(!var) then var := i)
    domains;
  let d = domains.(!var) in
  let m = Interval.midpoint d in
  if Interval.lo d < m && m < Interval.hi d then Some (!var, m) else None

(* Walk one disjunct's recorded tree from the query box [dom]:
   - a split bisects the box at its recorded point, which must lie
     strictly inside the variable's interval, so the children tile the
     parent by construction; a midpoint split bisects the widest variable
     at its midpoint;
   - a leaf closes when the forward enclosure of an atom, cheapest first,
     excludes the atom, or else the mean-value form does: either is a
     sound refutation of the leaf's box.
   The walk has one branch point: a leaf neither test closes, a split that
   does not fit its box, or a tree that is not well formed.  A check
   raises [Open] there.  A refinement ([refine]) bisects such a leaf at
   the midpoint of its widest variable and tests each half the same way,
   for at most [leaf_budget] nodes, and raises [Open] only at a leaf still
   open then or at a misfit; it returns the tree it closed, with those
   bisections as midpoint splits, so every leaf of that tree closes where
   it stands.  Every visited node counts against the branch bound and the
   budget.  The walk never calls HC4. *)
let walk_tree ~refine q st rts dom tree =
  let by_cost = List.stable_sort (fun a b -> compare a.size b.size) rts in
  let with_mvf = List.filter (fun rt -> rt.n_partials > 0) by_cost in
  let nodes_out = ref [] and points_out = ref [] in
  let emit node = if refine then nodes_out := node :: !nodes_out in
  (* The forward enclosure of each atom, cheapest first, then the
     mean-value form of each atom with partials, whose sweep continues
     that atom's forward sweep: each tape slot is swept at most once. *)
  let leaf_test domains =
    if List.exists (fun rt -> not (possibly_sat rt.atom (rt.forward domains))) by_cost then begin
      st.replay_forward <- st.replay_forward + 1;
      true
    end
    else begin
      let mid = Array.map Interval.midpoint domains in
      List.exists
        (fun rt ->
          mvf_refutes rt.atom (mean_value domains (rt.eval_mid mid) (rt.partials domains)))
        with_mvf
      && begin
        st.replay_mvf <- st.replay_mvf + 1;
        true
      end
    end
  in
  let visit () =
    st.replay_nodes <- st.replay_nodes + 1;
    if st.branches + st.replay_nodes > q.opts.max_branches then
      raise (Budget_exhausted Budget.Branch_budget);
    match Budget.consume_branches q.budget 1 with
    | Some s -> raise (Budget_exhausted s)
    | None -> ()
  in
  let halves domains var m =
    let half lo hi =
      let d = Array.copy domains in
      d.(var) <- Interval.make lo hi;
      d
    in
    (half (Interval.lo domains.(var)) m, half m (Interval.hi domains.(var)))
  in
  let close_leaf domains =
    let spent = ref 0 in
    let rec close domains =
      if leaf_test domains then emit node_leaf
      else
        match if refine && !spent < leaf_budget then midpoint_split domains else None with
        | None -> raise_notrace Open
        | Some (var, m) ->
          spent := !spent + 2;
          emit node_midpoint;
          let left, right = halves domains var m in
          visit ();
          visit ();
          close left;
          close right
    in
    close domains
  in
  let pos = ref 0 and point = ref 0 in
  let rec walk domains =
    visit ();
    let node = tree.nodes.(!pos) in
    incr pos;
    if node = node_leaf then close_leaf domains
    else begin
      let split =
        if node = node_midpoint then midpoint_split domains
        else begin
          let var = node asr 2 and m = tree.points.(!point) in
          incr point;
          if var >= 0 && var < Array.length domains
             && Interval.lo domains.(var) < m && m < Interval.hi domains.(var)
          then Some (var, m)
          else None
        end
      in
      match split with
      | None -> raise_notrace Open
      | Some (var, m) ->
        emit node;
        if refine && node <> node_midpoint then points_out := m :: !points_out;
        let left, right = halves domains var m in
        walk left;
        walk right
    end
  in
  if not (well_formed tree) then raise_notrace Open;
  walk dom;
  { nodes = Array.of_list (List.rev !nodes_out); points = Array.of_list (List.rev !points_out) }

(* Counters are bumped once per query with the merged totals (not inside
   the branch loop), so the numbers are identical across job counts. *)
let c_solves = Obs.Metrics.counter "solver.solves"
let c_branches = Obs.Metrics.counter "solver.branches"
let c_prunes = Obs.Metrics.counter "solver.prunes"
let c_prunes_mvf = Obs.Metrics.counter "solver.prunes_mvf"
let c_hc4 = Obs.Metrics.counter "solver.hc4_revise"
let c_steals = Obs.Metrics.counter "solver.steals"
let c_steal_failures = Obs.Metrics.counter "solver.steal_failures"
let c_frontier_hw = Obs.Metrics.counter "solver.frontier_high_water"

(* What [solve_prepared], [replay] and [refine] share: bounds validation,
   the loop over the disjuncts ([decide q st i conj initial] decides
   disjunct [i], the prepared atoms [conj]), the counters and the stats.
   A walk that meets an open leaf ([Open]) ends the query with Unknown,
   like a budget stop but with no stop recorded.  [cover q] is the proof
   of an Unsat answer, when one was recorded. *)
let run_query ~opts ~budget ?(spurious = fun _ -> false) ~cover p ~bounds decide =
  let t0 = Timing.now () in
  let st = fresh_state () in
  let names = p.p_names in
  if List.length bounds <> Array.length names then
    invalid_arg "Solver.solve_prepared: bounds arity differs from prepared variables";
  List.iteri
    (fun i (n, _, _) ->
      if not (String.equal n names.(i)) then
        invalid_arg
          (Printf.sprintf
             "Solver.solve_prepared: bounds variable %s does not match prepared variable %s"
             n names.(i)))
    bounds;
  let initial =
    {
      dom = Array.of_list (List.map (fun (_, lo, hi) -> Interval.make lo hi) bounds);
      depth = 0;
      slot = 0;
    }
  in
  let deltas = Array.make (max_refinements + 1) opts.delta in
  for k = 1 to max_refinements do
    deltas.(k) <- deltas.(k - 1) /. 100.0
  done;
  let q = { opts; budget; spurious; deltas; level = Atomic.make 0; slots = None } in
  let interrupted = ref None in
  (* A budget stop ends the whole query: [st.branches] and the deadline are
     shared across disjuncts, so retrying the remaining ones would stop
     again immediately.  The verdict degrades to Unknown (never to a wrong
     Unsat) and the stop reason is recorded in the stats. *)
  let rec try_disjuncts i unknown = function
    | [] -> if unknown then Unknown else Unsat
    | conj :: rest -> (
      match decide q st i conj initial with
      | Delta_sat w -> Delta_sat w
      | Unsat -> try_disjuncts (i + 1) unknown rest
      | Unknown -> try_disjuncts (i + 1) true rest
      | exception Open -> Unknown
      | exception Budget_exhausted stop ->
        interrupted := Some stop;
        Unknown)
  in
  let verdict = try_disjuncts 0 false p.p_disjuncts in
  Obs.Metrics.incr c_solves;
  Obs.Metrics.add c_branches st.branches;
  Obs.Metrics.add c_prunes st.prunes;
  Obs.Metrics.add c_prunes_mvf st.mvf_prunes;
  Obs.Metrics.add c_hc4 st.hc4_calls;
  Obs.Metrics.add c_steals st.steals;
  Obs.Metrics.add c_steal_failures st.steal_failures;
  Obs.Metrics.add c_frontier_hw st.frontier_hw;
  let stats =
    {
      branches = st.branches;
      prunes = st.prunes;
      mvf_prunes = st.mvf_prunes;
      hc4_calls = st.hc4_calls;
      max_depth = st.max_depth;
      steals = st.steals;
      steal_failures = st.steal_failures;
      frontier_high_water = st.frontier_hw;
      refinements = Atomic.get q.level;
      replay_nodes = st.replay_nodes;
      replay_forward = st.replay_forward;
      replay_mvf = st.replay_mvf;
      elapsed = Float.max 0.0 (Timing.now () -. t0);
      interrupted = !interrupted;
      cover = (match verdict with Unsat -> cover q | Delta_sat _ | Unknown -> None);
    }
  in
  (verdict, stats)

let solve_prepared ?options ?(budget = Budget.unlimited) ?spurious ?(record = false) p ~bounds =
  Obs.Trace.with_span "solver.solve" @@ fun () ->
  let trees = ref [] in
  let decide q st _ conj initial =
    let make_rts () = List.map tape_rt conj in
    if not record then solve_conjunction_par q st p.p_names make_rts initial
    else begin
      let slots = Atomic.make 1 in
      st.records <- [];
      let verdict =
        solve_conjunction_par { q with slots = Some slots } st p.p_names make_rts initial
      in
      (match verdict with
      | Unsat -> trees := build_tree ~n_slots:(Atomic.get slots) st.records :: !trees
      | Delta_sat _ | Unknown -> ());
      st.records <- [];
      verdict
    end
  in
  let cover q =
    if record then
      Some { delta = q.deltas.(Atomic.get q.level); trees = Array.of_list (List.rev !trees) }
    else None
  in
  run_query ~opts:(Option.value options ~default:p.p_options) ~budget ?spurious ~cover p ~bounds
    decide

(* Disjunct [i]'s tree, or [Open] when the cover has another tree count. *)
let tree_of p (cover : cover) i =
  if Array.length cover.trees <> List.length p.p_disjuncts then raise_notrace Open;
  cover.trees.(i)

let replay ?(diverse = false) ?(budget = Budget.unlimited) p ~bounds (cover : cover) =
  Obs.Trace.with_span "solver.replay" @@ fun () ->
  let runtime =
    if diverse then fun (a, _) -> expr_rt ~index_of:p.p_index_of a (partials_of p.p_names a)
    else tape_rt
  in
  let decide q st i conj initial =
    let rts = List.map runtime conj in
    ignore (walk_tree ~refine:false q st rts initial.dom (tree_of p cover i) : tree);
    Unsat
  in
  run_query ~opts:p.p_options ~budget ~cover:(fun _ -> None) p ~bounds decide

let refine ?(budget = Budget.unlimited) p ~bounds (cover : cover) =
  Obs.Trace.with_span "solver.refine" @@ fun () ->
  let trees = ref [] in
  let decide q st i conj initial =
    trees :=
      walk_tree ~refine:true q st (List.map tape_rt conj) initial.dom (tree_of p cover i) :: !trees;
    Unsat
  in
  let refined _ = Some { cover with trees = Array.of_list (List.rev !trees) } in
  (snd (run_query ~opts:p.p_options ~budget ~cover:refined p ~bounds decide)).cover

let solve ?(options = default_options) ?(budget = Budget.unlimited) ~bounds formula =
  let vars = List.map (fun (n, _, _) -> n) bounds in
  let p = prepare ~options ~vars formula in
  solve_prepared ~budget p ~bounds

let pp_verdict fmt = function
  | Unsat -> Format.pp_print_string fmt "unsat"
  | Delta_sat w ->
    Format.fprintf fmt "delta-sat (";
    List.iteri
      (fun i (n, x) -> Format.fprintf fmt "%s%s = %.6g" (if i > 0 then ", " else "") n x)
      w;
    Format.fprintf fmt ")"
  | Unknown -> Format.pp_print_string fmt "unknown"
