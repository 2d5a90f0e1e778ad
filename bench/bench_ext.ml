(* Benchmarks for the extensions beyond the paper's evaluation: the
   discrete-time engine (incl. the RNN future-work case), Lyapunov mode
   and the falsification baseline. *)

let pf = Format.printf

let describe_discrete name report =
  let st = report.Engine.stats in
  match report.Engine.outcome with
  | Engine.Proved cert ->
    pf "%-28s | proved  | level %.4f | %d iters | %5.1f s@." name cert.Engine.level
      st.Engine.candidate_iterations st.Engine.total_time
  | Engine.Failed _ ->
    pf "%-28s | failed  | %10s | %d iters | %5.1f s@." name "-"
      st.Engine.candidate_iterations st.Engine.total_time

let discrete_bench () =
  Bench_common.hr "Extension: discrete-time verification (incl. stateful controllers)";
  let ff = Discrete.of_network ~dt:0.1 Error_dynamics.reference_controller in
  describe_discrete "feedforward, dt=0.1" (Discrete.verify ~rng:(Rng.create 5) ff);
  let ff2 = Discrete.of_network ~dt:0.05 Error_dynamics.reference_controller in
  describe_discrete "feedforward, dt=0.05" (Discrete.verify ~rng:(Rng.create 5) ff2);
  (* The future-work case: a leaky recurrent controller over the augmented
     3-D state.  Needs the tight-delta configuration (see DESIGN.md) and a
     few minutes of branch-and-prune. *)
  let rnn =
    Rnn.of_weights
      ~w_input:[| [| 0.48; 0.64 |] |]
      ~w_recurrent:[| [| 0.2 |] |]
      ~b_hidden:[| 0.0 |]
      ~w_output:[| [| 1.25 |] |]
      ~b_output:[| 0.0 |]
      ~output_activation:Nn.Linear ~leak:0.2 ()
  in
  let sys = Discrete.of_rnn ~dt:0.1 rnn in
  let config =
    {
      (Discrete.default_config ~dim:3) with
      Discrete.smt =
        { Solver.default_options with Solver.delta = 1e-5; max_branches = 2_000_000 };
    }
  in
  describe_discrete "leaky RNN (lambda=0.2), 3-D" (Discrete.verify ~config ~rng:(Rng.create 5) sys)

let lyapunov_bench () =
  Bench_common.hr "Extension: simulation-guided Lyapunov analysis (ref. [11])";
  let system = Bench_common.dubins_system Error_dynamics.reference_controller in
  let report = Lyapunov.verify ~rng:(Rng.create 9) system in
  (match report.Lyapunov.outcome with
  | Lyapunov.Proved cert ->
    pf "reference controller: STABLE, W = %s@."
      (Expr.to_string (Template.w_expr cert.Lyapunov.template cert.Lyapunov.coeffs))
  | Lyapunov.Failed _ -> pf "reference controller: inconclusive@.");
  let st = report.Lyapunov.stats in
  pf "  %d iteration(s), LP %.3f s, SMT %.3f s@." st.Engine.candidate_iterations st.Engine.lp_time
    st.Engine.smt5_time

let falsify_bench () =
  Bench_common.hr "Extension: falsification baseline (robustness minimization)";
  let config = Engine.default_config in
  pf "%-26s | %10s | %9s | %s@." "controller" "outcome" "rollouts" "robustness";
  let run name net seed =
    let system = Bench_common.dubins_system net in
    match
      Falsify.falsify ~rng:(Rng.create seed) ~field:system.Engine.numeric_field
        ~x0_rect:config.Engine.x0_rect ~safe_rect:config.Engine.safe_rect ()
    with
    | Falsify.Falsified { robustness; _ } ->
      pf "%-26s | %10s | %9s | %.4f@." name "falsified" "-" robustness
    | Falsify.Not_falsified { best_robustness; evaluations; _ } ->
      pf "%-26s | %10s | %9d | %.4f (best)@." name "resisted" evaluations best_robustness
  in
  run "verified reference" Error_dynamics.reference_controller 3;
  let destabilizing =
    Nn.of_layers ~input_dim:2
      [
        {
          Nn.weights = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |];
          biases = [| 0.0; 0.0 |];
          activation = Nn.Tansig;
        };
        { Nn.weights = [| [| -0.5; -0.5 |] |]; biases = [| 0.0 |]; activation = Nn.Linear };
      ]
  in
  run "destabilizing (injected)" destabilizing 3

let benchmark_systems_bench () =
  Bench_common.hr "Extension: benchmark system suite (engine generality)";
  pf "%-24s | %-12s | %s@." "system" "expectation" "outcome";
  List.iter
    (fun name ->
      let scenario = (Option.get (Registry.find_scenario name)).Registry.scenario in
      let e = Result.fold ~ok:Fun.id ~error:failwith (Registry.elaborate scenario) in
      let r =
        Engine.verify ~config:e.Scenario.config ~rng:(Rng.create 7) e.Scenario.closed.Plant.system
      in
      let outcome =
        match r.Engine.outcome with
        | Engine.Proved c ->
          Printf.sprintf "proved, level %.4f (%.2f s)" c.Engine.level
            r.Engine.stats.Engine.total_time
        | Engine.Failed _ ->
          Printf.sprintf "no certificate (%.2f s)" r.Engine.stats.Engine.total_time
      in
      let expect =
        match scenario.Scenario.expectation with
        | Some Scenario.Should_fail -> "should fail"
        | Some Scenario.Should_prove | None -> "should prove"
      in
      pf "%-24s | %-12s | %s@." name expect outcome)
    [
      "damped-pendulum";
      "undamped-pendulum";
      "linear-stable";
      "linear-saddle";
      "van-der-pol-reversed";
    ]

let run () =
  discrete_bench ();
  benchmark_systems_bench ();
  lyapunov_bench ();
  falsify_bench ()
