(* Unit and property tests for the util library: PRNG determinism and
   statistics, float helpers. *)

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = Array.init 32 (fun _ -> Rng.float a) in
  let ys = Array.init 32 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "different streams" false (xs = ys)

let test_rng_copy_replays () =
  let a = Rng.create 7 in
  ignore (Rng.float a);
  let b = Rng.copy a in
  let xs = Array.init 16 (fun _ -> Rng.float a) in
  let ys = Array.init 16 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "copy replays" true (xs = ys)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let xs = Array.init 64 (fun _ -> Rng.float a) in
  let ys = Array.init 64 (fun _ -> Rng.float c) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_rng_uniform_range () =
  let rng = Rng.create 99 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng 2.0 5.0 in
    Alcotest.(check bool) "in range" true (x >= 2.0 && x < 5.0)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 4 in
  let xs = Array.init 20_000 (fun _ -> Rng.uniform rng 0.0 1.0) in
  let m = Floatx.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.02)

let test_rng_normal_moments () =
  let rng = Rng.create 5 in
  let xs = Array.init 50_000 (fun _ -> Rng.normal rng) in
  let m = Floatx.mean xs and s = Floatx.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs m < 0.03);
  Alcotest.(check bool) "std near 1" true (Float.abs (s -. 1.0) < 0.03)

let test_rng_int_bounds () =
  let rng = Rng.create 6 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    let k = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (k >= 0 && k < 10);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_shuffle_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true (sorted = Array.init 50 Fun.id);
  Alcotest.(check bool) "actually shuffled" false (a = Array.init 50 Fun.id)

let test_approx () =
  Alcotest.(check bool) "close" true (Floatx.approx 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Floatx.approx 1.0 1.1);
  Alcotest.(check bool) "absolute tolerance near zero" true (Floatx.approx 0.0 1e-13)

let test_clamp () =
  check_float "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-3.0));
  check_float "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 3.0);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5)

let test_linspace () =
  let xs = Floatx.linspace 0.0 1.0 5 in
  Alcotest.(check int) "count" 5 (Array.length xs);
  check_float "first" 0.0 xs.(0);
  check_float "last" 1.0 xs.(4);
  check_float "middle" 0.5 xs.(2)

let test_wrap_angle () =
  check_float "identity" 1.0 (Floatx.wrap_angle 1.0);
  check_float "wrap positive" (-.Floatx.pi /. 2.0) (Floatx.wrap_angle (1.5 *. Floatx.pi));
  check_float "wrap negative" (Floatx.pi /. 2.0) (Floatx.wrap_angle (-1.5 *. Floatx.pi));
  Alcotest.(check bool) "pi stays pi" true
    (Float.abs (Floatx.wrap_angle Floatx.pi -. Floatx.pi) < 1e-12)

let test_stats () =
  check_float "mean" 2.0 (Floatx.mean [| 1.0; 2.0; 3.0 |]);
  check_float "mean empty" 0.0 (Floatx.mean [||]);
  check_float "sum" 6.0 (Floatx.sum [| 1.0; 2.0; 3.0 |]);
  check_float "stddev constant" 0.0 (Floatx.stddev [| 5.0; 5.0; 5.0 |]);
  check_float "max" 3.0 (Floatx.max_elt [| 1.0; 3.0; 2.0 |]);
  check_float "min" 1.0 (Floatx.min_elt [| 1.0; 3.0; 2.0 |])

(* Run [f] against an injectable raw clock, always restoring the real one. *)
let with_fake_clock cell f =
  Timing.set_clock_for_tests (Some (fun () -> !cell));
  Fun.protect ~finally:(fun () -> Timing.set_clock_for_tests None) f

let test_timing_monotonic_under_backwards_jump () =
  let clock = ref 100.0 in
  with_fake_clock clock (fun () ->
      check_float "reads the raw clock" 100.0 (Timing.now ());
      clock := 50.0;  (* NTP-style backwards step *)
      check_float "never decreases" 100.0 (Timing.now ());
      clock := 100.5;
      check_float "resumes once raw catches up" 100.5 (Timing.now ()))

let test_timing_time_clamped_under_backwards_jump () =
  let clock = ref 100.0 in
  with_fake_clock clock (fun () ->
      let r, dt = Timing.time (fun () -> clock := 10.0; 42) in
      Alcotest.(check int) "result passes through" 42 r;
      Alcotest.(check bool) "time clamped at zero" true (dt >= 0.0))

(* The headline regression: a backwards wall-clock jump must neither expire
   a Budget deadline early nor extend it. *)
let test_budget_immune_to_backwards_jump () =
  let clock = ref 100.0 in
  with_fake_clock clock (fun () ->
      let budget = Budget.with_timeout 10.0 in
      Alcotest.(check bool) "fresh budget alive" false (Budget.expired budget);
      clock := 50.0;  (* jump back 50s: deadline must not move *)
      Alcotest.(check bool) "not expired by the jump" false (Budget.expired budget);
      Alcotest.(check bool) "remaining not extended" true (Budget.remaining budget <= 10.0);
      clock := 109.0;  (* 9s of monotonic progress since creation *)
      Alcotest.(check bool) "still inside the deadline" false (Budget.expired budget);
      clock := 110.5;
      Alcotest.(check bool) "expires on monotonic time" true (Budget.expired budget);
      Alcotest.(check bool) "check reports deadline" true
        (match Budget.check budget with Some Budget.Deadline -> true | _ -> false))

(* Budget.child: the per-request budget of the serve daemon.  A child may
   never outlive its parent, a parent's cancellation must reach every
   child, and a child's private branch pool must not draw down the
   parent's. *)
let test_budget_child_never_outlives_parent () =
  let clock = ref 100.0 in
  with_fake_clock clock (fun () ->
      let parent = Budget.with_timeout 5.0 in
      (* Child asks for far more time than the parent has left. *)
      let lavish = Budget.child ~timeout:100.0 parent in
      Alcotest.(check bool) "clamped to parent remaining" true
        (Budget.remaining lavish <= 5.0);
      clock := 105.5;
      Alcotest.(check bool) "child expired with parent" true (Budget.expired lavish);
      (* A tighter child expires before the parent. *)
      clock := 200.0;
      let parent = Budget.with_timeout 50.0 in
      let tight = Budget.child ~timeout:1.0 parent in
      clock := 202.0;
      Alcotest.(check bool) "tight child expired" true (Budget.expired tight);
      Alcotest.(check bool) "parent still live" false (Budget.expired parent))

let test_budget_child_parent_cancel_propagates () =
  let sw = Budget.switch () in
  let parent = Budget.with_switch sw Budget.unlimited in
  let child = Budget.child ~timeout:1000.0 parent in
  Alcotest.(check bool) "child live before cancel" false (Budget.expired child);
  Budget.fire sw;
  Alcotest.(check bool) "parent cancel reaches child" true
    (match Budget.check child with Some Budget.Cancelled -> true | _ -> false);
  (* A child's own switch stays private: siblings and parent unaffected. *)
  let sw2 = Budget.switch () in
  let parent = Budget.unlimited in
  let a = Budget.with_switch sw2 (Budget.child parent) in
  let b = Budget.child parent in
  Budget.fire sw2;
  Alcotest.(check bool) "cancelled child stops" true (Budget.expired a);
  Alcotest.(check bool) "sibling unaffected" false (Budget.expired b);
  Alcotest.(check bool) "parent unaffected" false (Budget.expired parent)

let test_budget_child_private_branch_pool () =
  let parent = Budget.make ~branches:100 () in
  let isolated = Budget.child ~branches:5 parent in
  ignore (Budget.consume_branches isolated 5);
  Alcotest.(check bool) "child pool dry" true
    (match Budget.check isolated with Some Budget.Branch_budget -> true | _ -> false);
  Alcotest.(check (option int)) "parent pool untouched" (Some 100)
    (Budget.remaining_branches parent);
  (* Without ~branches the parent's pool is shared, as in sub_budget. *)
  let shared = Budget.child parent in
  ignore (Budget.consume_branches shared 40);
  Alcotest.(check (option int)) "shared pool drawn down" (Some 60)
    (Budget.remaining_branches parent)

let prop_wrap_angle_range =
  QCheck.Test.make ~name:"wrap_angle lands in (-pi, pi]" ~count:500
    QCheck.(float_range (-100.0) 100.0)
    (fun a ->
      let w = Floatx.wrap_angle a in
      w > -.Floatx.pi -. 1e-9 && w <= Floatx.pi +. 1e-9)

let prop_wrap_angle_equivalent =
  QCheck.Test.make ~name:"wrap_angle preserves the angle mod 2pi" ~count:500
    QCheck.(float_range (-50.0) 50.0)
    (fun a ->
      let w = Floatx.wrap_angle a in
      Float.abs (Float.sin (a -. w)) < 1e-9 && Float.abs (1.0 -. Float.cos (a -. w)) < 1e-9)

let prop_clamp_idempotent =
  QCheck.Test.make ~name:"clamp is idempotent" ~count:500
    QCheck.(triple (float_range (-10.) 10.) (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (a, b, x) ->
      let lo = Float.min a b and hi = Float.max a b in
      let c = Floatx.clamp ~lo ~hi x in
      Floatx.clamp ~lo ~hi c = c && c >= lo && c <= hi)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        ] );
      ( "floatx",
        [
          Alcotest.test_case "approx" `Quick test_approx;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "wrap_angle" `Quick test_wrap_angle;
          Alcotest.test_case "stats" `Quick test_stats;
          QCheck_alcotest.to_alcotest prop_wrap_angle_range;
          QCheck_alcotest.to_alcotest prop_wrap_angle_equivalent;
          QCheck_alcotest.to_alcotest prop_clamp_idempotent;
        ] );
      ( "timing",
        [
          Alcotest.test_case "monotonic under backwards jump" `Quick
            test_timing_monotonic_under_backwards_jump;
          Alcotest.test_case "time clamped under backwards jump" `Quick
            test_timing_time_clamped_under_backwards_jump;
          Alcotest.test_case "budget immune to backwards jump" `Quick
            test_budget_immune_to_backwards_jump;
        ] );
      ( "budget.child",
        [
          Alcotest.test_case "never outlives parent" `Quick
            test_budget_child_never_outlives_parent;
          Alcotest.test_case "parent cancel propagates" `Quick
            test_budget_child_parent_cancel_propagates;
          Alcotest.test_case "private branch pool" `Quick
            test_budget_child_private_branch_pool;
        ] );
    ]
