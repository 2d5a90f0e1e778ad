type failure_reason =
  | Lp_failed of string
  | Cex_budget_exhausted
  | Level_range_empty
  | Level_budget_exhausted
  | Solver_inconclusive of string
  | Timeout of string
  | Seed_shortfall of int * int

let string_of_failure = function
  | Lp_failed s -> "lp failed: " ^ s
  | Cex_budget_exhausted -> "cex budget exhausted"
  | Level_range_empty -> "level range empty"
  | Level_budget_exhausted -> "level budget exhausted"
  | Solver_inconclusive s -> "solver inconclusive: " ^ s
  | Timeout s -> "timeout: " ^ s
  | Seed_shortfall (got, wanted) -> Printf.sprintf "seed shortfall: %d/%d" got wanted

type cut =
  | Cex of float array
  | Trace of Ode.trace
  | Exact_trace of Ode.trace
  | Shape_cut of float array * float array

type obligation = {
  name : string;
  formula : float array -> Formula.t;
  violates : float array -> float array -> bool;
  cuts : float array -> cut list;
}

type stats = {
  mutable candidate_iterations : int;
  mutable level_iterations : int;
  mutable lp_time : float;
  mutable lp_calls : int;
  mutable smt5_time : float;
  mutable smt5_calls : int;
  mutable smt5_branches : int;
  mutable smt67_time : float;
  mutable smt6_time : float;
  mutable smt7_time : float;
  mutable sim_time : float;
  mutable total_time : float;
  mutable lp_rows : int;
  mutable budget_stop : Budget.stop option;
}

let fresh_stats () =
  {
    candidate_iterations = 0;
    level_iterations = 0;
    lp_time = 0.0;
    lp_calls = 0;
    smt5_time = 0.0;
    smt5_calls = 0;
    smt5_branches = 0;
    smt67_time = 0.0;
    smt6_time = 0.0;
    smt7_time = 0.0;
    sim_time = 0.0;
    total_time = 0.0;
    lp_rows = 0;
    budget_stop = None;
  }

type stage = Simulation | Lp | Condition5 | Condition6 | Condition7

(* The span and the stage seconds bracket the same call, so the run report's
   stage table and the trace can never disagree about where a stage begins
   and ends. *)
let timed stats stage span f =
  let r, dt = Timing.time (fun () -> Obs.Trace.with_span span f) in
  (match stage with
  | Simulation -> stats.sim_time <- stats.sim_time +. dt
  | Lp -> stats.lp_time <- stats.lp_time +. dt
  | Condition5 -> stats.smt5_time <- stats.smt5_time +. dt
  | Condition6 -> stats.smt6_time <- stats.smt6_time +. dt
  | Condition7 -> stats.smt7_time <- stats.smt7_time +. dt);
  stats.smt67_time <- stats.smt6_time +. stats.smt7_time;
  r

let rect_bounds vars rect =
  Array.to_list (Array.mapi (fun i v -> (v, fst rect.(i), snd rect.(i))) vars)

let in_rect (rect : (float * float) array) (x : float array) =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length rect do
    let lo, hi = rect.(!i) in
    ok := not (x.(!i) < lo || x.(!i) > hi);
    incr i
  done;
  !ok

(* A counterexample is "repeated" when it lies within tolerance of any
   previously accumulated one — adding it again cuts nothing from the LP. *)
let cex_repeated ?(tol = 1e-9) cexs x = List.exists (fun prev -> Vec.dist2 prev x < tol) cexs

let sample_outside ~rng ~domain ~excluded n =
  let rec draw acc k guard =
    if k = 0 || guard > 100 * n then List.rev acc
    else begin
      let x = Array.map (fun (lo, hi) -> Rng.uniform rng lo hi) domain in
      if in_rect excluded x then draw acc k (guard + 1) else draw (x :: acc) (k - 1) (guard + 1)
    end
  in
  draw [] n 0

let simulate ?(budget = Budget.unlimited) ?until ~rect ~dt ~steps ~converged field x0 =
  (* The budget check inside the stop predicate means even a stalled or
     divergent field cannot keep a single trace running past the
     deadline. *)
  let stop _t x =
    Vec.norm2 x < converged
    || (not (in_rect rect x))
    || (match until with Some inner -> in_rect inner x | None -> false)
    || Budget.expired budget
  in
  let tr = Ode.simulate_rk45 ~stop field ~t0:0.0 ~x0 ~dt ~t_end:(dt *. float_of_int steps) in
  (* The stop predicate ends the trace at its first sample outside [rect],
     so only the last sample can lie outside; a lone [x0] outside stays as
     the trace. *)
  let n = Ode.trace_length tr in
  if n = 1 || in_rect rect tr.Ode.states.(n - 1) then tr
  else { Ode.times = Array.sub tr.Ode.times 0 (n - 1); states = Array.sub tr.Ode.states 0 (n - 1) }

type t = {
  budget : Budget.t;
  synthesis : Synthesis.options;
  smt : Solver.options;
  max_iters : int;
  template : Template.t;
  field : Ode.field;
  bounds : (string * float * float) list;
  stats : stats;
  seeds : Ode.trace list;
  exact_seeds : Ode.trace list;
  mutable cuts : cut list;  (* every refinement, newest first *)
  mutable witnesses : float array list;
  mutable lp : Synthesis.Incremental.t option;
  mutable cover : Solver.cover option;  (* of the last obligation decided *)
}

let create ~stats ?(exact_traces = []) ~budget ~synthesis ~smt ~max_iters
    ~template ~field ~domain traces =
  {
    budget;
    synthesis;
    smt;
    max_iters;
    template;
    field;
    bounds = rect_bounds (Template.vars template) domain;
    stats;
    seeds = traces;
    exact_seeds = exact_traces;
    cuts = [];
    witnesses = [];
    lp = None;
    cover = None;
  }

let picked t f = List.filter_map f t.cuts
let traces t = picked t (function Trace tr -> Some tr | _ -> None) @ t.seeds
let witnesses t = t.witnesses
let cover t = t.cover

(* The LP is created lazily on the first solve (a warm-start hint may pass
   every obligation with zero LP solves), from the seeds and every cut so
   far, and then lives across iterations and runs: each re-solve starts
   from the previous optimal basis. *)
let live_lp t =
  match t.lp with
  | Some lp -> lp
  | None ->
    let lp =
      Synthesis.Incremental.create ~options:t.synthesis
        ~cex_points:(picked t (function Cex x -> Some x | _ -> None))
        ~exact_traces:(picked t (function Exact_trace tr -> Some tr | _ -> None) @ t.exact_seeds)
        ~shape_cuts:(picked t (function Shape_cut (f, v) -> Some (f, v) | _ -> None))
        ~template:t.template ~field:t.field (traces t)
    in
    t.lp <- Some lp;
    lp

let refine t cut =
  t.cuts <- cut :: t.cuts;
  match (t.lp, cut) with
  | None, _ -> ()
  | Some lp, Cex x -> Synthesis.Incremental.add_cex lp x
  | Some lp, Trace tr -> Synthesis.Incremental.add_trace lp tr
  | Some lp, Exact_trace tr -> Synthesis.Incremental.add_exact_trace lp tr
  | Some lp, Shape_cut (f, v) -> Synthesis.Incremental.add_shape_cut lp (f, v)

let c_cex_cuts = Obs.Metrics.counter "cegis.cex_cuts"
let c_delta_refinements = Obs.Metrics.counter "cegis.delta_refinements"

let timeout t stage stop =
  t.stats.budget_stop <- Some stop;
  Error (Timeout stage)

let solve_lp t =
  let outcome =
    timed t.stats Lp "synthesis.lp" (fun () ->
        Synthesis.Incremental.solve ~budget:t.budget (live_lp t))
  in
  t.stats.lp_calls <- t.stats.lp_calls + 1;
  t.stats.lp_rows <- Synthesis.Incremental.row_count (live_lp t);
  match outcome with
  | Synthesis.Lp_infeasible -> Error (Lp_failed "LP infeasible")
  | Synthesis.Lp_unstable -> Error (Lp_failed "LP numerically unstable")
  | Synthesis.Margin_too_small m -> Error (Lp_failed (Printf.sprintf "margin %.2e too small" m))
  | Synthesis.Lp_timed_out stop -> timeout t "lp" stop
  | Synthesis.Candidate { coeffs; _ } -> Ok coeffs

(* Decide one obligation for one candidate, recording the proof of an
   Unsat.  A δ-sat witness is spurious when the candidate's true margin at
   the point is below the solver's δ; the solver then refines δ inside the
   running search rather than returning a useless cut (dReal's
   recommended usage), so a witness that comes back without violating the
   exact condition is a near-violation at the finest δ. *)
let decide t ob coeffs =
  let timed_smt f = timed t.stats Condition5 "condition5" f in
  let vars = Template.vars t.template in
  let verdict, st =
    timed_smt (fun () ->
        let prepared =
          Solver.prepare ~options:t.smt ~vars:(Array.to_list vars) (ob.formula coeffs)
        in
        Solver.solve_prepared ~budget:t.budget ~record:true
          ~spurious:(fun x -> not (ob.violates coeffs x))
          prepared ~bounds:t.bounds)
  in
  t.stats.smt5_calls <- t.stats.smt5_calls + 1;
  t.stats.smt5_branches <- t.stats.smt5_branches + st.Solver.branches;
  Obs.Metrics.add c_delta_refinements st.Solver.refinements;
  t.cover <- st.Solver.cover;
  match verdict with
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> (
    match st.Solver.interrupted with
    | Some ((Budget.Deadline | Budget.Cancelled) as stop) -> `Timeout stop
    | Some Budget.Branch_budget | None -> `Unknown)
  | Solver.Delta_sat witness ->
    let x = Array.map (fun v -> Option.value (List.assoc_opt v witness) ~default:0.0) vars in
    (* Not refutable at the finest δ but not a genuine violation either:
       the margin at x is within solver resolution.  It becomes a
       tightening cut, unless the same point keeps recurring. *)
    if ob.violates coeffs x then `Cex x else `Near_cex x

(* The first obligation with a witness, or [Ok None] when all are Unsat.
   Witnesses are compared against the *whole* history, not just the most
   recent one: an alternating pair (A, B, A, …) would otherwise burn every
   iteration re-adding ineffective cuts. *)
let rec check t coeffs = function
  | [] -> Ok None
  | ob :: rest -> (
    let repeated x = cex_repeated t.witnesses x in
    match decide t ob coeffs with
    | `Unsat -> check t coeffs rest
    | `Timeout stop -> timeout t ob.name stop
    | `Unknown -> Error (Solver_inconclusive ob.name)
    | `Near_cex x when repeated x ->
      Error (Solver_inconclusive (ob.name ^ ": margin at solver resolution"))
    | `Cex x when repeated x ->
      Error (Solver_inconclusive (ob.name ^ ": counterexample cut ineffective"))
    | `Near_cex x | `Cex x -> Ok (Some (ob, x)))

let run ?warm t obligations =
  let rec attempt ?warm iter =
    match Budget.check t.budget with
    | Some stop -> timeout t "candidate loop" stop
    | None ->
      if iter > t.max_iters then Error Cex_budget_exhausted
      else begin
        t.stats.candidate_iterations <- t.stats.candidate_iterations + 1;
        let candidate = match warm with Some coeffs -> Ok coeffs | None -> solve_lp t in
        match Result.bind candidate (fun coeffs -> check t coeffs obligations) with
        | Error reason -> Error reason
        | Ok None -> candidate
        | Ok (Some (ob, x)) ->
          Obs.Metrics.incr c_cex_cuts;
          t.witnesses <- x :: t.witnesses;
          List.iter (refine t) (timed t.stats Simulation "cex_simulation" (fun () -> ob.cuts x));
          attempt (iter + 1)
      end
  in
  attempt ?warm 1
