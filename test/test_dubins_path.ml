(* Tests for the Dubins shortest-path planner: endpoint correctness of every
   candidate word, optimality sanity, sampling, and following a planned
   path with the verified controller. *)

let pose x y theta = { Dubins_car.x; y; theta }

let pose_error a b =
  Float.max
    (Float.hypot (a.Dubins_car.x -. b.Dubins_car.x) (a.Dubins_car.y -. b.Dubins_car.y))
    (Float.abs (Floatx.wrap_angle (a.Dubins_car.theta -. b.Dubins_car.theta)))

let prop_candidates_reach_goal =
  QCheck.Test.make ~name:"every candidate ends exactly at the goal pose" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let random_pose () =
        pose (Rng.uniform rng (-10.0) 10.0) (Rng.uniform rng (-10.0) 10.0)
          (Rng.uniform rng (-4.0) 4.0)
      in
      let start = random_pose () and goal = random_pose () in
      let radius = Rng.uniform rng 0.5 3.0 in
      let cands = Dubins_path.candidates ~radius start goal in
      cands <> []
      && List.for_all
           (fun c -> pose_error (Dubins_path.end_pose c) goal < 1e-9)
           cands)

let prop_shortest_is_minimal =
  QCheck.Test.make ~name:"shortest <= every candidate, >= euclidean distance" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let start =
        pose (Rng.uniform rng (-8.0) 8.0) (Rng.uniform rng (-8.0) 8.0) (Rng.uniform rng (-3.0) 3.0)
      in
      let goal =
        pose (Rng.uniform rng (-8.0) 8.0) (Rng.uniform rng (-8.0) 8.0) (Rng.uniform rng (-3.0) 3.0)
      in
      let radius = Rng.uniform rng 0.5 2.0 in
      let best = Dubins_path.shortest ~radius start goal in
      let euclid =
        Float.hypot (goal.Dubins_car.x -. start.Dubins_car.x) (goal.Dubins_car.y -. start.Dubins_car.y)
      in
      best.Dubins_path.length >= euclid -. 1e-9
      && List.for_all
           (fun c -> best.Dubins_path.length <= c.Dubins_path.length +. 1e-9)
           (Dubins_path.candidates ~radius start goal))

let test_straight_line () =
  (* Same heading, goal dead ahead: a pure straight segment. *)
  let p = Dubins_path.shortest ~radius:1.0 (pose 0.0 0.0 0.0) (pose 0.0 10.0 0.0) in
  Alcotest.(check (float 1e-9)) "length 10" 10.0 p.Dubins_path.length

let test_u_turn () =
  (* Goal right behind, opposite heading: at least a half-circle. *)
  let p = Dubins_path.shortest ~radius:1.0 (pose 0.0 0.0 0.0) (pose 2.0 0.0 Float.pi) in
  (* Turning radius 1, lateral offset 2: exactly a half-circle, length pi. *)
  Alcotest.(check bool)
    (Printf.sprintf "length %.4f ~ pi" p.Dubins_path.length)
    true
    (Float.abs (p.Dubins_path.length -. Float.pi) < 1e-6)

let test_pose_at_endpoints () =
  let start = pose 1.0 2.0 0.5 and goal = pose 5.0 (-3.0) 2.0 in
  let p = Dubins_path.shortest ~radius:1.0 start goal in
  Alcotest.(check bool) "pose_at 0 = start" true (pose_error (Dubins_path.pose_at p 0.0) start < 1e-9);
  Alcotest.(check bool) "pose_at L = goal" true
    (pose_error (Dubins_path.pose_at p p.Dubins_path.length) goal < 1e-9);
  (* Monotone arc-length: midpoint is on the path with finite coordinates. *)
  let mid = Dubins_path.pose_at p (0.5 *. p.Dubins_path.length) in
  Alcotest.(check bool) "midpoint finite" true
    (Float.is_finite mid.Dubins_car.x && Float.is_finite mid.Dubins_car.y)

let test_sample_spacing () =
  let p = Dubins_path.shortest ~radius:1.0 (pose 0.0 0.0 0.0) (pose 6.0 6.0 1.0) in
  let poses = Dubins_path.sample ~ds:0.2 p in
  Alcotest.(check bool) "enough samples" true
    (Array.length poses >= int_of_float (p.Dubins_path.length /. 0.2));
  (* Consecutive samples are at most ~ds apart (arc chords are shorter). *)
  let ok = ref true in
  for i = 0 to Array.length poses - 2 do
    let a = poses.(i) and b = poses.(i + 1) in
    let d = Float.hypot (b.Dubins_car.x -. a.Dubins_car.x) (b.Dubins_car.y -. a.Dubins_car.y) in
    if d > 0.2 +. 1e-9 then ok := false
  done;
  Alcotest.(check bool) "chord spacing bounded" true !ok

let test_to_path_followable () =
  (* Plan a Dubins path and track its polyline with the verified reference
     controller; the tracking error must stay small. *)
  let plan = Dubins_path.shortest ~radius:2.0 (pose 0.0 0.0 0.0) (pose 12.0 8.0 1.2) in
  let path = Dubins_path.to_path ~ds:0.25 plan in
  let r =
    Dubins_car.rollout ~v:1.0 ~path ~dt:0.05
      ~steps:(int_of_float (Path.total_length path /. 0.05 *. 1.5))
      ~x0:(Dubins_car.start_pose path) Error_dynamics.reference_controller
  in
  let max_derr =
    Array.fold_left (fun m d -> Float.max m (Float.abs d)) 0.0 r.Dubins_car.derr
  in
  (* The tansig controller has bounded turn rate, so it lags on arcs of
     curvature 1/2; ~0.7 lateral lag is its documented steady state here. *)
  Alcotest.(check bool)
    (Printf.sprintf "max tracking error %.3f < 0.8" max_derr)
    true (max_derr < 0.8)

let test_invalid_radius () =
  Alcotest.check_raises "radius 0"
    (Invalid_argument "Dubins_path.candidates: non-positive radius") (fun () ->
      ignore (Dubins_path.candidates ~radius:0.0 (pose 0.0 0.0 0.0) (pose 1.0 1.0 0.0)))

let test_word_names () =
  List.iter
    (fun (w, n) -> Alcotest.(check string) "name" n (Dubins_path.word_name w))
    [
      (Dubins_path.LSL, "LSL");
      (Dubins_path.RSR, "RSR");
      (Dubins_path.LSR, "LSR");
      (Dubins_path.RSL, "RSL");
      (Dubins_path.RLR, "RLR");
      (Dubins_path.LRL, "LRL");
    ]

let prop_ccc_words_appear =
  (* For nearby poses with small radius margins, CCC words must sometimes
     win — checks they are generated at all. *)
  QCheck.Test.make ~name:"CCC candidates exist for close poses" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let start = pose 0.0 0.0 (Rng.uniform rng (-3.0) 3.0) in
      let goal =
        pose (Rng.uniform rng (-1.0) 1.0) (Rng.uniform rng (-1.0) 1.0)
          (Rng.uniform rng (-3.0) 3.0)
      in
      let cands = Dubins_path.candidates ~radius:1.0 start goal in
      List.exists
        (fun c -> c.Dubins_path.word = Dubins_path.RLR || c.Dubins_path.word = Dubins_path.LRL)
        cands)

let () =
  Alcotest.run "dubins_path"
    [
      ( "construction",
        [
          QCheck_alcotest.to_alcotest prop_candidates_reach_goal;
          QCheck_alcotest.to_alcotest prop_shortest_is_minimal;
          QCheck_alcotest.to_alcotest prop_ccc_words_appear;
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "u-turn" `Quick test_u_turn;
          Alcotest.test_case "invalid radius" `Quick test_invalid_radius;
          Alcotest.test_case "word names" `Quick test_word_names;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "pose_at endpoints" `Quick test_pose_at_endpoints;
          Alcotest.test_case "sample spacing" `Quick test_sample_spacing;
          Alcotest.test_case "followable with verified controller" `Quick test_to_path_followable;
        ] );
    ]
