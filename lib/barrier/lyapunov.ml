type config = {
  domain_rect : (float * float) array;
  ball_radius : float;
  gamma : float;
  n_seed : int;
  sim_dt : float;
  sim_steps : int;
  synthesis : Synthesis.options;
  template_kind : Template.kind;
  max_candidate_iters : int;
  smt : Solver.options;
}

let default_config =
  let eps = 0.05 in
  let half_pi = Float.pi /. 2.0 in
  {
    domain_rect = [| (-5.0, 5.0); (-.(half_pi -. eps), half_pi -. eps) |];
    ball_radius = 0.5;
    gamma = 1e-6;
    n_seed = 20;
    sim_dt = 0.05;
    sim_steps = 400;
    synthesis = { Synthesis.default_options with Synthesis.subsample = 10 };
    template_kind = Template.Quadratic;
    max_candidate_iters = 20;
    smt = Solver.default_options;
  }

type certificate = { template : Template.t; coeffs : float array }

type outcome = Proved of certificate | Failed of Engine.failure_reason

type report = { outcome : outcome; stats : Engine.stats; counterexamples : float array list }

(* ‖x‖² ≥ r² as a formula over the system variables. *)
let outside_ball vars radius =
  let norm2 =
    Expr.sum (Array.to_list (Array.map (fun v -> Expr.pow (Expr.var v) 2) vars))
  in
  Formula.ge norm2 (Expr.const (radius *. radius))

let positivity_formula system config cert =
  Formula.and_
    [
      outside_ball system.Engine.vars config.ball_radius;
      Formula.le (Template.w_expr cert.template cert.coeffs) (Expr.const 0.0);
    ]

let verify ?(config = default_config) ?(budget = Budget.unlimited) ~rng system =
  let t_start = Timing.now () in
  let template = Template.make config.template_kind system.Engine.vars in
  (* Synthesis must only constrain W outside the ball; over-approximate the
     ball by its inscribed rectangle for the exclusion filter (smaller than
     the ball, so no needed constraint is lost — only some near-ball
     samples stay, which is harmless since rho >= min_rho filters the
     worst). *)
  let r = config.ball_radius /. Float.sqrt 2.0 in
  let synthesis =
    {
      config.synthesis with
      Synthesis.exclude_rect =
        Some (Array.map (fun _ -> (-.r, r)) config.domain_rect);
      min_rho = Float.max config.synthesis.Synthesis.min_rho (0.25 *. config.ball_radius ** 2.0);
      separation_rects = None;
    }
  in
  let simulate =
    Cegis.simulate ~budget ~rect:config.domain_rect ~dt:config.sim_dt ~steps:config.sim_steps
      ~converged:(0.5 *. config.ball_radius) system.Engine.numeric_field
  in
  let seeds =
    List.init config.n_seed (fun _ ->
        Array.map (fun (lo, hi) -> Rng.uniform rng lo hi) config.domain_rect)
  in
  let stats = Cegis.fresh_stats () in
  let seed_traces =
    Cegis.timed stats Cegis.Simulation "seed_simulation" (fun () -> List.map simulate seeds)
  in
  let cegis =
    Cegis.create ~stats ~budget ~synthesis ~smt:config.smt ~max_iters:config.max_candidate_iters
      ~template ~field:system.Engine.numeric_field ~domain:config.domain_rect seed_traces
  in
  let decrease =
    Engine.decrease_obligation ~name:"decrease"
      ~outside:(outside_ball system.Engine.vars config.ball_radius)
      ~gamma:config.gamma ~simulate system template
  in
  (* W not positive at a witness: its trace seeds the positivity rows of
     the next LP around that region. *)
  let positivity =
    {
      Cegis.name = "positivity";
      formula = (fun coeffs -> positivity_formula system config { template; coeffs });
      violates = (fun coeffs x -> Template.w_eval template coeffs x <= 0.0);
      cuts = (fun x -> [ Cegis.Trace (simulate x) ]);
    }
  in
  let outcome =
    match Cegis.run cegis [ decrease; positivity ] with
    | Ok coeffs -> Proved { template; coeffs }
    | Error reason -> Failed reason
  in
  stats.total_time <- Timing.now () -. t_start;
  { outcome; stats; counterexamples = Cegis.witnesses cegis }
