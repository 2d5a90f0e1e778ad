(* Tests for the falsification baseline: robustness semantics, detection of
   unsafe controllers, and the verification cross-check (verified systems
   must never falsify). *)

let config = Engine.default_config

let safe_rect = config.Engine.safe_rect

let x0_rect = config.Engine.x0_rect

let check_float = Alcotest.(check (float 1e-9))

let test_state_robustness () =
  (* Center of [-5,5]x[-1.52,1.52]: min(5, 5, 1.52.., 1.52..). *)
  let r = Falsify.state_robustness ~safe_rect [| 0.0; 0.0 |] in
  check_float "center" ((Float.pi /. 2.0) -. 0.05) r;
  (* On a face: zero. *)
  check_float "face" 0.0 (Falsify.state_robustness ~safe_rect [| 5.0; 0.0 |]);
  (* Outside: negative. *)
  Alcotest.(check bool) "outside negative" true
    (Falsify.state_robustness ~safe_rect [| 5.5; 0.0 |] < 0.0);
  check_float "outside amount" (-0.5) (Falsify.state_robustness ~safe_rect [| 5.5; 0.0 |])

let test_trace_robustness () =
  let tr =
    { Ode.times = [| 0.0; 1.0; 2.0 |]; states = [| [| 0.0; 0.0 |]; [| 4.0; 0.0 |]; [| 2.0; 1.0 |] |] }
  in
  (* Minimum over states: state (2, 1) has theta-margin (pi/2 - 0.05) - 1. *)
  check_float "min along trace" ((Float.pi /. 2.0) -. 0.05 -. 1.0)
    (Falsify.trace_robustness ~safe_rect tr)

let constant_controller c =
  Nn.of_layers ~input_dim:2
    [ { Nn.weights = [| [| 0.0; 0.0 |] |]; biases = [| c |]; activation = Nn.Linear } ]

let field_of net =
  (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system.Engine.numeric_field

let test_falsifies_constant_turn () =
  (* u = 1 turns forever: θ_err leaves the safe band quickly. *)
  let outcome =
    Falsify.falsify ~rng:(Rng.create 1) ~field:(field_of (constant_controller 1.0)) ~x0_rect
      ~safe_rect ()
  in
  match outcome with
  | Falsify.Falsified { x0; trace; robustness } ->
    Alcotest.(check bool) "negative robustness" true (robustness < 0.0);
    (* The initial state must be inside X0. *)
    Alcotest.(check bool) "x0 in X0" true
      (x0.(0) >= -1.0 && x0.(0) <= 1.0 && Float.abs x0.(1) <= Float.pi /. 16.0);
    (* The trace must actually leave the safe rectangle. *)
    let final = Ode.final_state trace in
    Alcotest.(check bool) "trace exits" true
      (Falsify.state_robustness ~safe_rect final < 0.0)
  | Falsify.Not_falsified _ -> Alcotest.fail "constant-turn controller must falsify"

let test_falsifies_destabilizing () =
  let bad =
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
  match Falsify.falsify ~rng:(Rng.create 2) ~field:(field_of bad) ~x0_rect ~safe_rect () with
  | Falsify.Falsified _ -> ()
  | Falsify.Not_falsified _ -> Alcotest.fail "destabilizing controller must falsify"

let test_verified_controller_never_falsifies () =
  (* The reference controller is *proved* safe; no search budget may find a
     violation.  This is the verification/testing cross-check. *)
  List.iter
    (fun (method_, seed) ->
      let options = { Falsify.default_options with Falsify.method_; budget = 300 } in
      match
        Falsify.falsify ~options ~rng:(Rng.create seed)
          ~field:(field_of Error_dynamics.reference_controller) ~x0_rect ~safe_rect ()
      with
      | Falsify.Falsified { x0; _ } ->
        Alcotest.failf "verified controller falsified from (%g, %g)!" x0.(0) x0.(1)
      | Falsify.Not_falsified { best_robustness; _ } ->
        Alcotest.(check bool) "positive robustness margin" true (best_robustness > 0.0))
    [ (Falsify.Random_search, 3); (Falsify.Cmaes_search, 4); (Falsify.Hybrid, 5) ]

let test_budget_respected () =
  let options = { Falsify.default_options with Falsify.budget = 50; method_ = Falsify.Random_search } in
  match
    Falsify.falsify ~options ~rng:(Rng.create 6)
      ~field:(field_of Error_dynamics.reference_controller) ~x0_rect ~safe_rect ()
  with
  | Falsify.Not_falsified { evaluations; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "%d evaluations <= 50" evaluations)
      true (evaluations <= 50)
  | Falsify.Falsified _ -> Alcotest.fail "should not falsify"

let test_determinism () =
  let run seed =
    Falsify.falsify ~rng:(Rng.create seed) ~field:(field_of (constant_controller 1.0)) ~x0_rect
      ~safe_rect ()
  in
  match (run 7, run 7) with
  | Falsify.Falsified { x0 = a; _ }, Falsify.Falsified { x0 = b; _ } ->
    Alcotest.(check bool) "same witness" true (a = b)
  | _ -> Alcotest.fail "both runs should falsify"

let prop_falsifier_witness_valid =
  (* Whatever the falsifier returns as a violation really is one. *)
  QCheck.Test.make ~name:"falsified witnesses are genuine" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let bias = if seed mod 2 = 0 then 0.8 else -0.8 in
      match
        Falsify.falsify ~rng:(Rng.create seed) ~field:(field_of (constant_controller bias))
          ~x0_rect ~safe_rect ()
      with
      | Falsify.Falsified { robustness; trace; _ } ->
        robustness < 0.0 && Falsify.trace_robustness ~safe_rect trace < 0.0
      | Falsify.Not_falsified _ -> true)

let () =
  Alcotest.run "falsify"
    [
      ( "robustness",
        [
          Alcotest.test_case "state robustness" `Quick test_state_robustness;
          Alcotest.test_case "trace robustness" `Quick test_trace_robustness;
        ] );
      ( "search",
        [
          Alcotest.test_case "finds constant-turn violation" `Quick test_falsifies_constant_turn;
          Alcotest.test_case "finds destabilizing violation" `Quick test_falsifies_destabilizing;
          Alcotest.test_case "verified controller resists" `Quick
            test_verified_controller_never_falsifies;
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "determinism" `Quick test_determinism;
          QCheck_alcotest.to_alcotest prop_falsifier_witness_valid;
        ] );
    ]
