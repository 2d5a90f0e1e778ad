(* Train a neural path-following controller by CMA-ES policy search (the
   paper's §4.2), robustify it over the domain of interest, and verify it
   with a barrier certificate.

   This is the full learning-enabled-component story: the controller is
   *learned* (not hand-written), informally validated by rollouts, and then
   *formally* proven safe.

   Run with: dune exec examples/train_and_verify.exe
   (takes a couple of minutes: two CMA-ES phases + verification) *)

let () =
  let rng = Rng.create 42 in
  let path = Path.paper_training_path in

  (* Phase 1 — track the training path (the paper's exact setup, scaled up
     from pop 15 / 50 iters for reliable convergence). *)
  Format.printf "phase 1: policy search on the training path...@.";
  let r1 = Training.train ~hidden:10 ~population:24 ~iterations:200 ~sigma:0.6 ~rng path in
  Format.printf "  final cost %.1f@." r1.Training.final_cost;

  (* Phase 2 — robustify: the barrier certificate asserts stabilization
     from the whole domain of interest, so add recovery rollouts from
     large offsets (see DESIGN.md: the paper validates on "a set of random
     reference trajectories"; this is the analogous step). *)
  Format.printf "phase 2: robustifying with perturbed starts...@.";
  let perturbed =
    [ (4.0, 0.0); (-4.0, 0.0); (4.0, 1.3); (-4.0, -1.3); (-4.0, 1.3); (4.0, -1.3);
      (0.0, 1.4); (0.0, -1.4) ]
  in
  let r2 =
    Training.train ~hidden:10 ~population:24 ~iterations:250 ~sigma:0.2 ~perturbed
      ~perturbed_steps:200 ~initial:r1.Training.network ~rng path
  in
  Format.printf "  final cost %.1f@." r2.Training.final_cost;
  let net = r2.Training.network in

  (* Informal validation, as in the paper: roll out and watch the errors. *)
  let rollout =
    Dubins_car.rollout ~v:1.0 ~path ~dt:0.2
      ~steps:(int_of_float (Path.total_length path /. 0.2 *. 1.2))
      ~x0:(Dubins_car.start_pose path) net
  in
  let max_abs a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 a in
  Format.printf "rollout: max |derr| = %.3f, max |theta_err| = %.3f@."
    (max_abs rollout.Dubins_car.derr)
    (max_abs rollout.Dubins_car.theta_err);

  (* Formal verification. *)
  Format.printf "@.verifying with the barrier-certificate pipeline...@.";
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let report = Engine.verify ~rng:(Rng.create 7) system in
  (match report.Engine.outcome with
  | Engine.Proved cert ->
    Format.printf "SAFE: W(x) = %s, level %.4f@."
      (Expr.to_string (Template.w_expr cert.Engine.template cert.Engine.coeffs))
      cert.Engine.level;
    Format.printf "counterexample refinements used: %d@."
      (List.length report.Engine.counterexamples)
  | Engine.Failed _ ->
    Format.printf
      "INCONCLUSIVE — training is stochastic; a controller can track well yet admit no@.\
       global quadratic certificate. Retrain with a different seed, or start from the@.\
       shipped data/trained_nh10.nn.@.")
