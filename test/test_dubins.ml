(* Tests for the Dubins-car substrate: path geometry (paper Fig. 3), error
   dynamics identities, closed-loop simulation, training cost. *)

let check_float = Alcotest.(check (float 1e-9))

let straight_x = Path.straight ~theta_r:(Float.pi /. 2.0) ~length:10.0
(* Heading pi/2 (clockwise from +y) is the +x direction. *)

(* --- Path geometry ----------------------------------------------------- *)

let test_straight_heads_x () =
  let x, y = Path.point_at straight_x 10.0 in
  check_float "end x" 10.0 x;
  Alcotest.(check bool) "end y" true (Float.abs y < 1e-9)

let test_total_length () =
  check_float "straight" 10.0 (Path.total_length straight_x);
  let p = Path.of_waypoints [ (0.0, 0.0); (3.0, 0.0); (3.0, 4.0) ] in
  check_float "L-shape" 7.0 (Path.total_length p)

let test_point_at () =
  let p = Path.of_waypoints [ (0.0, 0.0); (3.0, 0.0); (3.0, 4.0) ] in
  let x, y = Path.point_at p 5.0 in
  check_float "x" 3.0 x;
  check_float "y" 2.0 y;
  (* Clamping below and above. *)
  Alcotest.(check bool) "clamp lo" true (Path.point_at p (-1.0) = (0.0, 0.0));
  Alcotest.(check bool) "clamp hi" true (Path.point_at p 100.0 = (3.0, 4.0))

let test_projection_on_segment () =
  (* Point above the +x path: distance error positive iff on the left.
     Travel direction +x; its left normal points to +y. *)
  let proj = Path.project straight_x (5.0, 2.0) in
  check_float "closest x" 5.0 (fst proj.Path.closest);
  check_float "closest y" 0.0 (snd proj.Path.closest);
  check_float "derr" 2.0 proj.Path.distance_error;
  check_float "theta_r" (Float.pi /. 2.0) proj.Path.tangent_heading;
  check_float "arc" 5.0 proj.Path.arc_position;
  let below = Path.project straight_x (5.0, -2.0) in
  check_float "below is right" (-2.0) below.Path.distance_error

let test_projection_past_end () =
  let proj = Path.project straight_x (12.0, 1.0) in
  check_float "clamped to end x" 10.0 (fst proj.Path.closest);
  check_float "arc clamped" 10.0 proj.Path.arc_position

let test_projection_corner () =
  let p = Path.of_waypoints [ (0.0, 0.0); (2.0, 0.0); (2.0, 2.0) ] in
  (* A point diagonally outside the corner projects onto the corner. *)
  let proj = Path.project p (3.0, -1.0) in
  check_float "corner x" 2.0 (fst proj.Path.closest);
  check_float "corner y" 0.0 (snd proj.Path.closest)

let test_errors_heading () =
  (* Vehicle on the path, heading along it: zero errors. *)
  let derr, theta_err = Path.errors straight_x ~x:3.0 ~y:0.0 ~theta_v:(Float.pi /. 2.0) in
  check_float "derr" 0.0 derr;
  check_float "theta_err" 0.0 theta_err;
  (* Vehicle rotated slightly: theta_err = theta_r - theta_v. *)
  let _, theta_err = Path.errors straight_x ~x:3.0 ~y:0.0 ~theta_v:(Float.pi /. 2.0 -. 0.2) in
  check_float "positive theta_err" 0.2 theta_err

let test_paper_eq12_identity () =
  (* Eq. (12): for a line through the origin with heading θr,
     derr = -x sin(pi/2 - θr) + y cos(pi/2 - θr). *)
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let theta_r = Rng.uniform rng (-1.2) 1.2 in
    let p = Path.straight ~theta_r ~length:200.0 in
    (* Stay near the middle of the path so the projection is interior. *)
    let s = Rng.uniform rng 50.0 150.0 in
    let px, py = Path.point_at p s in
    let off = Rng.uniform rng (-3.0) 3.0 in
    (* Move along the left normal (-cos θr, sin θr). *)
    let x = px -. (off *. Float.cos theta_r) and y = py +. (off *. Float.sin theta_r) in
    let derr, _ = Path.errors p ~x ~y ~theta_v:theta_r in
    let expected = (-.x *. Float.sin ((Float.pi /. 2.0) -. theta_r)) +. (y *. Float.cos ((Float.pi /. 2.0) -. theta_r)) in
    if Float.abs (derr -. expected) > 1e-6 then
      Alcotest.failf "Eq12 mismatch at θr=%.3f off=%.3f: %g vs %g" theta_r off derr expected
  done

let test_invalid_paths () =
  Alcotest.check_raises "single waypoint"
    (Invalid_argument "Path.of_waypoints: need at least two waypoints") (fun () ->
      ignore (Path.of_waypoints [ (0.0, 0.0) ]));
  Alcotest.check_raises "zero-length segment"
    (Invalid_argument "Path.of_waypoints: zero-length segment") (fun () ->
      ignore (Path.of_waypoints [ (0.0, 0.0); (0.0, 0.0) ]))

(* --- Error dynamics ----------------------------------------------------- *)

let cfg = Error_dynamics.default_config

let test_paper_form_equals_simplified () =
  (* The paper's ḋerr expression equals V sin(θerr) for constant θr. *)
  let rng = Rng.create 4 in
  for _ = 1 to 300 do
    let theta_r = Rng.uniform rng (-3.0) 3.0 in
    let theta_err = Rng.uniform rng (-3.0) 3.0 in
    let v = Rng.uniform rng 0.1 5.0 in
    let cfg = { Error_dynamics.v; theta_r } in
    let u_expr = Expr.const 0.0 in
    let full = (Error_dynamics.symbolic_field cfg ~u:u_expr).(0) in
    let simple = (Error_dynamics.symbolic_field_simplified cfg ~u:u_expr).(0) in
    let env = [ (Error_dynamics.var_theta_err, theta_err); (Error_dynamics.var_derr, 0.0) ] in
    let a = Expr.eval_env env full and b = Expr.eval_env env simple in
    if Float.abs (a -. b) > 1e-9 then
      Alcotest.failf "identity fails at θr=%.3f θerr=%.3f: %g vs %g" theta_r theta_err a b
  done

let test_numeric_vs_symbolic_field () =
  let net = Error_dynamics.reference_controller in
  let u_expr = Error_dynamics.symbolic_controller net in
  let sym = Error_dynamics.symbolic_field cfg ~u:u_expr in
  let num = Error_dynamics.field_of_network cfg net in
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let d = Rng.uniform rng (-5.0) 5.0 and th = Rng.uniform rng (-1.5) 1.5 in
    let f = num 0.0 [| d; th |] in
    let env = [ (Error_dynamics.var_derr, d); (Error_dynamics.var_theta_err, th) ] in
    if Float.abs (f.(0) -. Expr.eval_env env sym.(0)) > 1e-9 then Alcotest.fail "f0 mismatch";
    if Float.abs (f.(1) -. Expr.eval_env env sym.(1)) > 1e-9 then Alcotest.fail "f1 mismatch"
  done

let test_theta_dot_is_minus_u () =
  let controller _ _ = 0.7 in
  let f = Error_dynamics.field cfg ~controller 0.0 [| 1.0; 0.2 |] in
  check_float "theta_err_dot = -u" (-0.7) f.(1)

let test_reference_controller_stabilizes () =
  let field = Error_dynamics.field_of_network cfg Error_dynamics.reference_controller in
  let tr = Ode.simulate_until field ~t0:0.0 ~x0:[| 3.0; 0.5 |] ~dt:0.05 ~t_end:100.0 in
  let final = Ode.final_state tr in
  Alcotest.(check bool)
    (Printf.sprintf "converged to (%.4f, %.4f)" final.(0) final.(1))
    true
    (Vec.norm2 final < 1e-2)

let prop_stabilizes_from_domain =
  QCheck.Test.make ~name:"reference controller converges from the safe rect" ~count:40
    QCheck.(pair (float_range (-4.5) 4.5) (float_range (-1.4) 1.4))
    (fun (d0, th0) ->
      let field = Error_dynamics.field_of_network cfg Error_dynamics.reference_controller in
      let tr = Ode.simulate_until field ~t0:0.0 ~x0:[| d0; th0 |] ~dt:0.05 ~t_end:200.0 in
      Vec.norm2 (Ode.final_state tr) < 0.05)

(* --- World-frame closed loop ------------------------------------------- *)

let test_rollout_tracks_straight () =
  let net = Error_dynamics.reference_controller in
  let long_path = Path.straight ~theta_r:(Float.pi /. 2.0) ~length:40.0 in
  let r =
    Dubins_car.rollout ~v:1.0 ~path:long_path ~dt:0.1 ~steps:600
      ~x0:{ Dubins_car.x = 0.0; y = 0.5; theta = Float.pi /. 2.0 }
      net
  in
  (* Started 0.5 left of the path; must converge to it.  The very last
     sample is the one where the stop predicate fired (just past the final
     waypoint, where the clamped projection inflates derr), so inspect the
     one before it. *)
  let last_derr = r.Dubins_car.derr.(Array.length r.Dubins_car.derr - 2) in
  Alcotest.(check bool) (Printf.sprintf "final derr %.4f" last_derr) true
    (Float.abs last_derr < 0.05)

let test_rollout_stops_at_end () =
  let net = Error_dynamics.reference_controller in
  let r =
    Dubins_car.rollout ~v:1.0 ~path:straight_x ~dt:0.1 ~steps:500
      ~x0:(Dubins_car.start_pose straight_x) net
  in
  let final = Ode.final_state r.Dubins_car.trace in
  (* 10-long path at speed 1 with 50 s budget: must stop near the end. *)
  Alcotest.(check bool) "stopped near path end" true (final.(0) < 10.5)

let test_start_pose () =
  let pose = Dubins_car.start_pose straight_x in
  check_float "x" 0.0 pose.Dubins_car.x;
  check_float "theta" (Float.pi /. 2.0) pose.Dubins_car.theta

(* --- Training ----------------------------------------------------------- *)

let test_cost_zero_for_perfect_tracking () =
  (* A hand controller on a straight path from an on-path start has near-zero
     errors, so the cost is small and dominated by the u² term. *)
  let net = Error_dynamics.reference_controller in
  let j = Training.cost ~v:1.0 ~path:straight_x ~dt:0.1 ~steps:120 net in
  Alcotest.(check bool) (Printf.sprintf "J=%.3f small" j) true (j < 10.0)

let test_cost_penalizes_offset () =
  (* Compare the trained-path cost of a good and a null controller. *)
  let zero_net =
    Nn.of_layers ~input_dim:2
      [ { Nn.weights = [| [| 0.0; 0.0 |] |]; biases = [| 0.0 |]; activation = Nn.Linear } ]
  in
  let good = Training.cost ~v:1.0 ~path:Path.paper_training_path ~dt:0.2 ~steps:700
      Error_dynamics.reference_controller in
  let bad = Training.cost ~v:1.0 ~path:Path.paper_training_path ~dt:0.2 ~steps:700 zero_net in
  Alcotest.(check bool) (Printf.sprintf "good %.0f < bad %.0f" good bad) true (good < bad)

let test_perturbed_start_geometry () =
  let pose = Training.perturbed_start straight_x ~derr:2.0 ~theta_err:0.3 in
  (* Left of the +x path is +y. *)
  check_float "offset y" 2.0 pose.Dubins_car.y;
  check_float "offset x" 0.0 pose.Dubins_car.x;
  let derr, theta_err =
    Path.errors straight_x ~x:pose.Dubins_car.x ~y:pose.Dubins_car.y
      ~theta_v:pose.Dubins_car.theta
  in
  check_float "derr realized" 2.0 derr;
  check_float "theta_err realized" 0.3 theta_err

let test_training_improves () =
  let rng = Rng.create 123 in
  let result =
    Training.train ~hidden:4 ~population:10 ~iterations:15 ~rng
      (Path.straight ~theta_r:0.0 ~length:30.0)
  in
  match result.Training.history with
  | [] -> Alcotest.fail "no history"
  | (_, first) :: _ ->
    let final = result.Training.final_cost in
    Alcotest.(check bool)
      (Printf.sprintf "improved %.1f -> %.1f" first final)
      true (final <= first);
    Alcotest.(check bool) "snapshots recorded" true
      (List.length result.Training.snapshots >= 2)

(* FNV-1a (64-bit) over the bits of [floats], byte by byte: equal hashes
   mean bit-identical values. *)
let fnv1a floats =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun v ->
      let bits = Int64.bits_of_float v in
      for b = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * b)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) prime
      done)
    floats;
  Printf.sprintf "%Lx" !h

let test_rollouts_and_training_pinned () =
  (* The fixed-step RK4 path behind Figure 4 and the falsifier: one
     training-path rollout (every time, state, error and command), a small
     CMA-ES training run and a falsification run, all from fixed seeds.
     A change that means to keep Figure 4 and falsify's verdicts keeps
     these bits. *)
  let net = Error_dynamics.reference_controller in
  let path = Path.paper_training_path in
  let r =
    Dubins_car.rollout ~v:1.0 ~path ~dt:0.2 ~steps:862 ~x0:(Dubins_car.start_pose path) net
  in
  let tr = r.Dubins_car.trace in
  let rollout_bits =
    List.concat
      [
        Array.to_list tr.Ode.times;
        List.concat_map Array.to_list (Array.to_list tr.Ode.states);
        Array.to_list r.Dubins_car.derr;
        Array.to_list r.Dubins_car.theta_err;
        Array.to_list r.Dubins_car.u;
      ]
  in
  Alcotest.(check int) "rollout samples" 721 (Ode.trace_length tr);
  Alcotest.(check string) "FNV-1a of the rollout bits" "b2388b9173d5ff61" (fnv1a rollout_bits);
  let trained =
    Training.train ~hidden:4 ~population:10 ~iterations:5 ~rng:(Rng.create 7) path
  in
  Alcotest.(check string) "final training cost bits" "411c0a924e6ac5cc"
    (Printf.sprintf "%Lx" (Int64.bits_of_float trained.Training.final_cost));
  let config = Engine.default_config in
  match
    Falsify.falsify ~rng:(Rng.create 11)
      ~field:(Error_dynamics.field_of_network cfg net)
      ~x0_rect:config.Engine.x0_rect ~safe_rect:config.Engine.safe_rect ()
  with
  | Falsify.Falsified _ -> Alcotest.fail "the reference controller must not falsify"
  | Falsify.Not_falsified { best_x0; best_robustness; evaluations } ->
    Alcotest.(check int) "falsify evaluations" 206 evaluations;
    Alcotest.(check string) "FNV-1a of the falsify result bits" "45b3fe0d4d9ae68d"
      (fnv1a (best_robustness :: Array.to_list best_x0))

let () =
  Alcotest.run "dubins"
    [
      ( "path",
        [
          Alcotest.test_case "straight heads +x" `Quick test_straight_heads_x;
          Alcotest.test_case "total length" `Quick test_total_length;
          Alcotest.test_case "point_at" `Quick test_point_at;
          Alcotest.test_case "projection" `Quick test_projection_on_segment;
          Alcotest.test_case "projection past end" `Quick test_projection_past_end;
          Alcotest.test_case "projection at corner" `Quick test_projection_corner;
          Alcotest.test_case "heading errors" `Quick test_errors_heading;
          Alcotest.test_case "paper Eq. 12 identity" `Quick test_paper_eq12_identity;
          Alcotest.test_case "invalid paths rejected" `Quick test_invalid_paths;
        ] );
      ( "error dynamics",
        [
          Alcotest.test_case "paper form = V sin(theta_err)" `Quick test_paper_form_equals_simplified;
          Alcotest.test_case "numeric = symbolic field" `Quick test_numeric_vs_symbolic_field;
          Alcotest.test_case "theta_dot = -u" `Quick test_theta_dot_is_minus_u;
          Alcotest.test_case "reference controller stabilizes" `Quick test_reference_controller_stabilizes;
          QCheck_alcotest.to_alcotest prop_stabilizes_from_domain;
        ] );
      ( "closed loop",
        [
          Alcotest.test_case "tracks straight path" `Quick test_rollout_tracks_straight;
          Alcotest.test_case "stops at path end" `Quick test_rollout_stops_at_end;
          Alcotest.test_case "start pose" `Quick test_start_pose;
        ] );
      ( "training",
        [
          Alcotest.test_case "near-zero cost when tracking" `Quick test_cost_zero_for_perfect_tracking;
          Alcotest.test_case "cost penalizes bad control" `Quick test_cost_penalizes_offset;
          Alcotest.test_case "perturbed start geometry" `Quick test_perturbed_start_geometry;
          Alcotest.test_case "training improves the cost" `Slow test_training_improves;
          Alcotest.test_case "rollouts and training pinned" `Quick
            test_rollouts_and_training_pinned;
        ] );
    ]
