(* Plan a shortest Dubins path between two poses, then track it with the
   *verified* NN controller — planning and certified control working
   together.

   The planner respects the car's minimum turning radius (the same
   saturation the controller's tansig output imposes); the barrier
   certificate guarantees the tracking errors never leave the safe set.

   Run with: dune exec examples/plan_and_follow.exe *)

let pf = Format.printf

let () =
  let start = { Dubins_car.x = 0.0; y = 0.0; theta = 0.0 } in
  let goal = { Dubins_car.x = 18.0; y = 10.0; theta = Float.pi /. 2.0 } in

  (* 1. Plan: shortest Dubins path under the turn-radius constraint. *)
  let radius = 2.5 in
  let plan = Dubins_path.shortest ~radius start goal in
  pf "plan: %s, length %.2f (turn radius %.1f)@."
    (Dubins_path.word_name plan.Dubins_path.word)
    plan.Dubins_path.length radius;
  Array.iter
    (fun (s : Dubins_path.segment) ->
      pf "  segment: %s, %.2f@."
        (match s.Dubins_path.turn with
        | Dubins_path.Left -> "left arc"
        | Dubins_path.Right -> "right arc"
        | Dubins_path.Straight -> "straight")
        s.Dubins_path.length)
    plan.Dubins_path.segments;

  (* 2. Certify the tracking controller once (straight-line error model, as
     in the paper; the certificate bounds the error dynamics that any
     slowly-curving path induces). *)
  let controller = Error_dynamics.reference_controller in
  let closed = Plant.close_exn Registry.dubins_error (Plant.Network controller) in
  let report = Engine.verify ~rng:(Rng.create 7) closed.Plant.system in
  (match report.Engine.outcome with
  | Engine.Proved cert ->
    pf "controller certified: B(x) = W(x) - %.4f@." cert.Engine.level
  | Engine.Failed _ -> pf "controller certification failed (unexpected)@.");

  (* 3. Follow the planned path. *)
  let path = Dubins_path.to_path ~ds:0.25 plan in
  let rollout =
    Dubins_car.rollout ~v:1.0 ~path ~dt:0.05
      ~steps:(int_of_float (Path.total_length path /. 0.05 *. 1.5))
      ~x0:(Dubins_car.start_pose path) controller
  in
  let n = Array.length rollout.Dubins_car.derr in
  let max_abs a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 a in
  let final = Ode.final_state rollout.Dubins_car.trace in
  pf "followed %d steps: max |derr| = %.3f, max |theta_err| = %.3f@." n
    (max_abs rollout.Dubins_car.derr)
    (max_abs rollout.Dubins_car.theta_err);
  pf "final position (%.2f, %.2f), goal (%.2f, %.2f)@." final.(0) final.(1) goal.Dubins_car.x
    goal.Dubins_car.y;
  pf "@.# sampled trajectory (x y), gnuplot-ready:@.";
  Array.iteri
    (fun i s -> if i mod 20 = 0 then pf "%.3f %.3f@." s.(0) s.(1))
    rollout.Dubins_car.trace.Ode.states
