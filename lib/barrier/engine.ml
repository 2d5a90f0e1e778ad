type system = {
  vars : string array;
  numeric_field : Ode.field;
  symbolic_field : Expr.t array;
}

type config = {
  x0_rect : (float * float) array;
  safe_rect : (float * float) array;
  gamma : float;
  n_seed : int;
  sim_dt : float;
  sim_steps : int;
  synthesis : Synthesis.options;
  template_kind : Template.kind;
  max_candidate_iters : int;
  max_level_iters : int;
  smt : Solver.options;
  jobs : int;
}

let default_config =
  let eps = 0.05 in
  let half_pi = Float.pi /. 2.0 in
  {
    x0_rect = [| (-1.0, 1.0); (-.Float.pi /. 16.0, Float.pi /. 16.0) |];
    safe_rect = [| (-5.0, 5.0); (-.(half_pi -. eps), half_pi -. eps) |];
    gamma = 1e-6;
    n_seed = 20;
    sim_dt = 0.05;
    sim_steps = 400;
    (* Subsample trace points so the dense-simplex LP stays a few thousand
       rows even with long traces and CEX refinements. *)
    synthesis = { Synthesis.default_options with Synthesis.subsample = 10 };
    (* x0_rect samples are excluded from the LP by [verify] below. *)
    template_kind = Template.Quadratic;
    max_candidate_iters = 20;
    max_level_iters = 30;
    smt = Solver.default_options;
    jobs = 1;
  }

type certificate = { template : Template.t; coeffs : float array; level : float }

let barrier_expr cert =
  Expr.( - ) (Template.w_expr cert.template cert.coeffs) (Expr.const cert.level)

type stats = Cegis.stats = {
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

type failure_reason = Cegis.failure_reason =
  | Lp_failed of string
  | Cex_budget_exhausted
  | Level_range_empty
  | Level_budget_exhausted
  | Solver_inconclusive of string
  | Timeout of string
  | Seed_shortfall of int * int

type outcome = Proved of certificate | Failed of failure_reason

type report = {
  outcome : outcome;
  stats : stats;
  traces : Ode.trace list;
  counterexamples : float array list;
  cover : Solver.cover option;
}

(* The Lie derivative ∇W·f as a symbolic expression. *)
let lie_derivative_expr system template coeffs =
  let grads = Template.grad_exprs template coeffs in
  Expr.sum
    (Array.to_list (Array.mapi (fun i g -> Expr.( * ) g system.symbolic_field.(i)) grads))

let decrease_formula system ~outside ~gamma template coeffs =
  Formula.and_
    [ outside; Formula.ge (lie_derivative_expr system template coeffs) (Expr.const (-.gamma)) ]

let condition5_formula system config cert =
  decrease_formula system
    ~outside:(Formula.outside_rect (Cegis.rect_bounds system.vars config.x0_rect))
    ~gamma:config.gamma cert.template cert.coeffs

let condition6_formula cert =
  Formula.gt (Template.w_expr cert.template cert.coeffs) (Expr.const cert.level)

let condition7_formula cert =
  Formula.le (Template.w_expr cert.template cert.coeffs) (Expr.const cert.level)

(* A witness genuinely violates the decrease condition when the exact Lie
   derivative at the point is >= -gamma; a counterexample contributes its
   exact Lie cut and the rows of its simulated trace. *)
let decrease_obligation ~name ~outside ~gamma ~simulate system template =
  {
    Cegis.name;
    formula = decrease_formula system ~outside ~gamma template;
    violates =
      (fun coeffs x ->
        let basis = Template.basis_lie template x (system.numeric_field 0.0 x) in
        let lie = ref 0.0 in
        Array.iteri (fun k b -> lie := !lie +. (coeffs.(k) *. b)) basis;
        !lie >= -.gamma);
    cuts = (fun x -> [ Cegis.Cex x; Cegis.Trace (simulate x) ]);
  }

let sample_initial_states ~rng config n =
  (* Rejection sampling stalls when X0 (nearly) covers the safe rectangle;
     an explicit shortfall beats silently under-seeding the LP. *)
  let seeds = Cegis.sample_outside ~rng ~domain:config.safe_rect ~excluded:config.x0_rect n in
  if List.length seeds = n then Ok seeds else Error (List.length seeds)

(* Simulate one trace; stop once the state converges to the equilibrium,
   leaves the safe rectangle or enters X0.  Samples outside the safe
   rectangle are dropped: condition (5) is only checked inside it, so
   constraining W there would needlessly over-constrain (or kill) the LP.
   The LP reads no sample inside X0 ([Synthesis.excluded]), so the first
   one ends the trace; it stays as the target of the last decrease row. *)
let simulate_trace ?budget config system x0 =
  Cegis.simulate ?budget ~until:config.x0_rect ~rect:config.safe_rect ~dt:config.sim_dt
    ~steps:config.sim_steps ~converged:1e-4 system.numeric_field x0

let verify ?(config = default_config) ?(budget = Budget.unlimited) ?warm_start ~rng system =
  Obs.Trace.with_span "engine.verify" @@ fun () ->
  let config =
    {
      config with
      synthesis =
        Synthesis.with_region config.synthesis ~x0_rect:config.x0_rect
          ~safe_rect:config.safe_rect;
    }
  in
  let t_start = Timing.now () in
  let stats = Cegis.fresh_stats () in
  let template = Template.make config.template_kind system.vars in
  let traces = ref [] and cexs = ref [] and cover = ref None in
  let run_pipeline () =
    match sample_initial_states ~rng config config.n_seed with
    | Error got -> Failed (Seed_shortfall (got, config.n_seed))
    | Ok seeds ->
      (* Seed traces are mutually independent, so they fan out over the
         domain pool; results come back in seed order, so the trace list
         (and everything downstream of it) is identical for any [jobs]. *)
      let seed_traces =
        Cegis.timed stats Cegis.Simulation "seed_simulation" (fun () ->
            Array.to_list
              (Pool.parallel_map ~jobs:config.jobs
                 (fun x0 ->
                   Obs.Trace.with_span "seed_trace" (fun () ->
                       simulate_trace ~budget config system x0))
                 (Array.of_list seeds)))
      in
      traces := seed_traces;
      (* A stalled/divergent field truncates traces at the deadline (see
         [simulate_trace]); catch the stop here so the LP never runs on a
         partial seed set after time is up. *)
      (match Budget.check budget with
      | Some stop ->
        stats.budget_stop <- Some stop;
        Failed (Timeout "seed simulation")
      | None -> (
        (* Phase 1 (Fig. 1 upper loop).  [warm_start] (certificate-store
           reuse) is tried as the first candidate instead of an LP solve; a
           hint of the wrong arity is unusable and ignored. *)
        let warm =
          match warm_start with
          | Some coeffs when Array.length coeffs = Template.dimension template -> Some coeffs
          | _ -> None
        in
        let cegis =
          Cegis.create ~stats ~budget ~synthesis:config.synthesis ~smt:config.smt
            ~max_iters:config.max_candidate_iters ~template ~field:system.numeric_field
            ~domain:config.safe_rect seed_traces
        in
        let outside = Formula.outside_rect (Cegis.rect_bounds system.vars config.x0_rect) in
        let generator =
          Cegis.run ?warm cegis
            [
              decrease_obligation ~name:"condition (5)" ~outside ~gamma:config.gamma
                ~simulate:(simulate_trace ~budget config system) system template;
            ]
        in
        traces := Cegis.traces cegis;
        cexs := Cegis.witnesses cegis;
        match generator with
        | Error reason -> Failed reason
        | Ok coeffs -> (
          cover := Cegis.cover cegis;
          (* Phase 2 (Fig. 1 lower loop). *)
          let spec =
            {
              Level_search.vars = system.vars;
              x0_rect = config.x0_rect;
              safe_rect = config.safe_rect;
              unsafe_rect = config.safe_rect;
              smt = config.smt;
              max_iters = config.max_level_iters;
            }
          in
          match Level_search.search ~budget ~stats spec template coeffs with
          | Ok level -> Proved { template; coeffs; level }
          | Error reason -> Failed reason)))
  in
  let outcome = run_pipeline () in
  stats.total_time <- Timing.now () -. t_start;
  let cover = match outcome with Proved _ -> !cover | Failed _ -> None in
  { outcome; stats; traces = !traces; counterexamples = !cexs; cover }

let exit_code = function
  | Proved _ -> 0
  | Failed (Timeout _) -> 3
  | Failed _ -> 2

(* --- Run reports ----------------------------------------------------------- *)

let outcome_meta outcome =
  match outcome with
  | Proved cert ->
    [
      ("outcome", Obs.Json.String "proved");
      ("level", Obs.Json.Float cert.level);
    ]
  | Failed reason ->
    [
      ("outcome", Obs.Json.String "failed");
      ("failure", Obs.Json.String (Cegis.string_of_failure reason));
    ]

let run_report ?(meta = []) ?(extra_stages = []) ?(spans = []) report =
  let stats = report.stats in
  let counter_meta =
    [
      ("candidate_iterations", Obs.Json.Int stats.candidate_iterations);
      ("level_iterations", Obs.Json.Int stats.level_iterations);
      ("smt5_branches", Obs.Json.Int stats.smt5_branches);
      ("lp_rows", Obs.Json.Int stats.lp_rows);
    ]
  in
  Obs.Report.make
    ~meta:(outcome_meta report.outcome @ counter_meta @ meta)
    ~stages:
      ([
         Obs.Report.stage ~name:"simulation" ~seconds:stats.sim_time ();
         Obs.Report.stage ~calls:stats.lp_calls ~name:"lp" ~seconds:stats.lp_time ();
         Obs.Report.stage ~calls:stats.smt5_calls ~name:"condition5" ~seconds:stats.smt5_time ();
         Obs.Report.stage ~name:"condition6" ~seconds:stats.smt6_time ();
         Obs.Report.stage ~name:"condition7" ~seconds:stats.smt7_time ();
       ]
      @ extra_stages)
    ~total_seconds:stats.total_time
    ~counters:(Obs.Metrics.dump_counters () |> List.filter (fun (_, v) -> v <> 0))
    ~spans ()

(* Retry/degradation ladder.  Each rung transforms the previous attempt's
   config, so escalations accumulate: once δ is widened it stays widened
   when the subsample is tightened next. *)
type attempt = { label : string; report : report }

type resilient_report = { best : report; attempts : attempt list }

(* One step up the template ladder: quadratic → quadratic+linear → the
   degree-4 monomial basis (the first genuinely non-ellipsoidal rung); a
   polynomial template is already the top and stays put. *)
let escalate_template = function
  | Template.Quadratic -> Template.Quadratic_linear
  | Template.Quadratic_linear -> Template.Poly 4
  | Template.Poly d -> Template.Poly d

let escalation_rungs =
  [
    ("fresh seed traces", fun c -> c);
    ( "delta widened x10",
      fun c -> { c with smt = { c.smt with Solver.delta = c.smt.Solver.delta *. 10.0 } } );
    ( "subsample tightened",
      fun c ->
        {
          c with
          synthesis =
            {
              c.synthesis with
              Synthesis.subsample = max 1 (c.synthesis.Synthesis.subsample / 2);
            };
        } );
    (* Two template rungs so a run that starts quadratic can climb all the
       way to poly-4 (rungs accumulate across attempts). *)
    ("template escalated", fun c -> { c with template_kind = escalate_template c.template_kind });
    ("template escalated", fun c -> { c with template_kind = escalate_template c.template_kind });
  ]

(* How far through the pipeline an attempt got — used to pick the best
   partial report when no attempt proves the certificate. *)
let attempt_rank report =
  match report.outcome with
  | Proved _ -> 5
  | Failed reason -> (
    match reason with
    | Seed_shortfall _ -> 0
    | Timeout "seed simulation" -> 1
    | Lp_failed _ | Timeout ("lp" | "candidate loop") -> 2
    | Timeout "level" | Level_range_empty | Level_budget_exhausted -> 4
    | Cex_budget_exhausted | Solver_inconclusive _ | Timeout _ -> 3)

let verify_resilient ?(config = default_config) ?(budget = Budget.unlimited)
    ?(restarts = 3) ~rng system =
  (* A non-positive attempt count would make the per-attempt budget
     fraction negative (an instantly-expired sub-budget); clamp instead. *)
  let total_attempts = max 1 (restarts + 1) in
  let finish attempts_rev =
    let attempts = List.rev attempts_rev in
    let best =
      List.fold_left
        (fun best a -> if attempt_rank a.report > attempt_rank best then a.report else best)
        (List.hd attempts).report (List.tl attempts)
    in
    { best; attempts }
  in
  let rec loop attempt_no label cfg rungs attempts =
    (* Divide the remaining wall-clock evenly over the attempts still
       allowed; an attempt that finishes early donates its leftover time
       to the later rungs. *)
    let attempts_left = total_attempts - attempt_no + 1 in
    let sub =
      if Float.is_finite (Budget.remaining budget) then
        Budget.sub_budget ~fraction:(1.0 /. float_of_int attempts_left) budget
      else budget
    in
    let report = verify ~config:cfg ~budget:sub ~rng:(Rng.split rng) system in
    let attempts = { label; report } :: attempts in
    match report.outcome with
    | Proved _ -> finish attempts
    | Failed _ ->
      if attempt_no >= total_attempts || Budget.expired budget then finish attempts
      else begin
        let label', cfg', rungs' =
          match rungs with
          | (l, f) :: rest -> (l, f cfg, rest)
          | [] -> ("fresh seed traces", cfg, [])
        in
        loop (attempt_no + 1) label' cfg' rungs' attempts
      end
  in
  loop 1 "initial" config escalation_rungs []

let dump_smt2 ?(config = default_config) system cert ~dir =
  let vars = Template.vars cert.template in
  let write name bounds formula =
    let path = Filename.concat dir name in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Formula.to_smtlib_script ~bounds formula));
    path
  in
  let p5 =
    write "condition5.smt2"
      (Cegis.rect_bounds system.vars config.safe_rect)
      (condition5_formula system config cert)
  in
  let p6 =
    write "condition6.smt2" (Cegis.rect_bounds vars config.x0_rect) (condition6_formula cert)
  in
  let query_rect =
    Level_search.condition7_query_rect cert.template cert.coeffs ~level:cert.level
      ~unsafe_rect:config.safe_rect
  in
  let formula7 =
    Formula.and_
      [ condition7_formula cert; Formula.outside_rect (Cegis.rect_bounds vars config.safe_rect) ]
  in
  let p7 = write "condition7.smt2" (Cegis.rect_bounds vars query_rect) formula7 in
  [ p5; p6; p7 ]
