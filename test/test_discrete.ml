(* Tests for the extensions beyond the paper's evaluation: the discrete-time
   engine (with RNN controllers), the Lyapunov mode, the RNN module itself,
   and SMT-LIB export. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- Rnn ------------------------------------------------------------ *)

let small_rnn ?(leak = 1.0) () =
  Rnn.of_weights
    ~w_input:[| [| 0.5; -0.3 |]; [| 0.2; 0.7 |] |]
    ~w_recurrent:[| [| 0.1; 0.0 |]; [| -0.2; 0.3 |] |]
    ~b_hidden:[| 0.05; -0.1 |]
    ~w_output:[| [| 1.0; -0.8 |] |]
    ~b_output:[| 0.1 |]
    ~output_activation:Nn.Linear ~leak ()

let test_rnn_step_by_hand () =
  let rnn = small_rnn () in
  let state = [| 0.1; -0.2 |] and input = [| 1.0; 0.5 |] in
  let h1 = Float.tanh ((0.5 *. 1.0) +. (-0.3 *. 0.5) +. (0.1 *. 0.1) +. (0.0 *. -0.2) +. 0.05) in
  let h2 = Float.tanh ((0.2 *. 1.0) +. (0.7 *. 0.5) +. (-0.2 *. 0.1) +. (0.3 *. -0.2) -. 0.1) in
  let state', out = Rnn.step rnn ~state ~input in
  check_float "h1" h1 state'.(0);
  check_float "h2" h2 state'.(1);
  check_float "u" ((1.0 *. h1) -. (0.8 *. h2) +. 0.1) out.(0)

let test_rnn_leak_slows_state () =
  let fast = small_rnn ~leak:1.0 () and slow = small_rnn ~leak:0.1 () in
  let state = [| 0.0; 0.0 |] and input = [| 2.0; 1.0 |] in
  let sf, _ = Rnn.step fast ~state ~input and ss, _ = Rnn.step slow ~state ~input in
  Alcotest.(check bool) "leaky moves less" true
    (Vec.norm2 ss < Vec.norm2 sf);
  check_float "leak scales the step" (0.1 *. sf.(0)) ss.(0)

let test_rnn_param_roundtrip () =
  let rnn = small_rnn () in
  Alcotest.(check int) "param count" ((2 * 2) + (2 * 2) + 2 + 2 + 1) (Rnn.num_params rnn);
  let theta = Rnn.get_params rnn in
  let rnn2 = Rnn.set_params rnn theta in
  let s, o = Rnn.step rnn ~state:[| 0.3; -0.4 |] ~input:[| 0.7; 0.2 |] in
  let s2, o2 = Rnn.step rnn2 ~state:[| 0.3; -0.4 |] ~input:[| 0.7; 0.2 |] in
  Alcotest.(check bool) "same step" true (s = s2 && o = o2)

let prop_rnn_symbolic_matches =
  QCheck.Test.make ~name:"rnn symbolic step equals numeric step" ~count:100
    QCheck.(
      quad (int_range 0 10_000) (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)
        (float_range 0.05 1.0))
    (fun (seed, a, b, leak) ->
      let rng = Rng.create seed in
      let rnn = Rnn.create ~rng ~inputs:2 ~hidden:3 ~outputs:1 ~leak () in
      let state = [| Rng.uniform rng (-1.0) 1.0; Rng.uniform rng (-1.0) 1.0; Rng.uniform rng (-1.0) 1.0 |] in
      let input = [| a; b |] in
      let num_state, num_out = Rnn.step rnn ~state ~input in
      let sym_state, sym_out =
        Rnn.step_exprs rnn
          ~state:[| Expr.var "h0"; Expr.var "h1"; Expr.var "h2" |]
          ~input:[| Expr.var "i0"; Expr.var "i1" |]
      in
      let env =
        [ ("h0", state.(0)); ("h1", state.(1)); ("h2", state.(2)); ("i0", a); ("i1", b) ]
      in
      let ok = ref true in
      Array.iteri
        (fun i e -> if Float.abs (Expr.eval_env env e -. num_state.(i)) > 1e-9 then ok := false)
        sym_state;
      if Float.abs (Expr.eval_env env sym_out.(0) -. num_out.(0)) > 1e-9 then ok := false;
      !ok)

let test_rnn_validation () =
  Alcotest.check_raises "bad recurrent shape"
    (Invalid_argument "Rnn.of_weights: recurrent matrix shape mismatch") (fun () ->
      ignore
        (Rnn.of_weights ~w_input:[| [| 1.0; 0.0 |] |] ~w_recurrent:[| [| 1.0; 0.0 |] |]
           ~b_hidden:[| 0.0 |] ~w_output:[| [| 1.0 |] |] ~b_output:[| 0.0 |] ()));
  Alcotest.check_raises "bad leak" (Invalid_argument "Rnn.of_weights: leak must be in (0, 1]")
    (fun () ->
      ignore
        (Rnn.of_weights ~w_input:[| [| 1.0; 0.0 |] |] ~w_recurrent:[| [| 0.5 |] |]
           ~b_hidden:[| 0.0 |] ~w_output:[| [| 1.0 |] |] ~b_output:[| 0.0 |] ~leak:0.0 ()))

(* --- Discrete engine ------------------------------------------------- *)

let test_discrete_symbolic_matches_numeric () =
  let sys = Discrete.of_network ~dt:0.1 Error_dynamics.reference_controller in
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let x = [| Rng.uniform rng (-4.0) 4.0; Rng.uniform rng (-1.4) 1.4 |] in
    let x' = sys.Discrete.map_numeric x in
    let env =
      [ (Error_dynamics.var_derr, x.(0)); (Error_dynamics.var_theta_err, x.(1)) ]
    in
    Array.iteri
      (fun i delta ->
        let expected = x'.(i) -. x.(i) in
        let got = Expr.eval_env env delta in
        if Float.abs (expected -. got) > 1e-9 then
          Alcotest.failf "delta %d mismatch: %g vs %g" i expected got)
      sys.Discrete.delta_symbolic
  done

let test_discrete_feedforward_proved () =
  let sys = Discrete.of_network ~dt:0.1 Error_dynamics.reference_controller in
  let report = Discrete.verify ~rng:(Rng.create 5) sys in
  match report.Engine.outcome with
  | Engine.Proved cert ->
    Alcotest.(check bool) "positive level" true (cert.Engine.level > 0.0)
  | Engine.Failed _ -> Alcotest.fail "discrete feedforward case must prove"

let test_discrete_unsafe_rejected () =
  let bad =
    Nn.of_layers ~input_dim:2
      [ { Nn.weights = [| [| 0.0; -1.0 |] |]; biases = [| 0.0 |]; activation = Nn.Linear } ]
  in
  let sys = Discrete.of_network ~dt:0.1 bad in
  match (Discrete.verify ~rng:(Rng.create 5) sys).Engine.outcome with
  | Engine.Proved _ -> Alcotest.fail "proved an unstable discrete loop"
  | Engine.Failed _ -> ()

let test_discrete_orbit_truncation () =
  let sys = Discrete.of_network ~dt:0.1 Error_dynamics.reference_controller in
  let config = Discrete.default_config ~dim:2 in
  let tr = Discrete.iterate sys config [| 3.0; 0.5 |] in
  Alcotest.(check bool) "nonempty" true (Ode.trace_length tr >= 1);
  Array.iter
    (fun x ->
      if Float.abs x.(0) > 5.0 || Float.abs x.(1) > (Float.pi /. 2.0) -. 0.05 then
        Alcotest.fail "orbit sample outside the safe rectangle")
    tr.Ode.states

let test_rnn_closed_loop_consistency () =
  let rnn = small_rnn ~leak:0.3 () in
  let sys = Discrete.of_rnn ~dt:0.1 rnn in
  Alcotest.(check int) "augmented dimension" 4 (Array.length sys.Discrete.vars);
  (* map_numeric versus manual composition. *)
  let x = [| 1.0; 0.2; 0.1; -0.3 |] in
  let state', out = Rnn.step rnn ~state:[| 0.1; -0.3 |] ~input:[| 1.0; 0.2 |] in
  let x' = sys.Discrete.map_numeric x in
  check_float "theta update" (0.2 -. (0.1 *. out.(0))) x'.(1);
  check_float "h0 update" state'.(0) x'.(2);
  check_float "h1 update" state'.(1) x'.(3);
  (* delta_symbolic consistency on the augmented state. *)
  let env =
    [
      (Error_dynamics.var_derr, x.(0));
      (Error_dynamics.var_theta_err, x.(1));
      ("h0", x.(2));
      ("h1", x.(3));
    ]
  in
  Array.iteri
    (fun i delta ->
      let expected = x'.(i) -. x.(i) in
      check_float (Printf.sprintf "delta %d" i) expected (Expr.eval_env env delta))
    sys.Discrete.delta_symbolic

let test_rnn_closed_loop_proved () =
  (* The paper's future-work case end-to-end: a leaky recurrent controller
     verified over the augmented (derr, theta_err, h) state space.  Uses
     the fast-converging parameterization; the slower lambda = 0.2 variant
     is exercised by bench/main.exe ext. *)
  let rnn =
    Rnn.of_weights
      ~w_input:[| [| 0.6; 0.8 |] |]
      ~w_recurrent:[| [| 0.0 |] |]
      ~b_hidden:[| 0.0 |]
      ~w_output:[| [| 1.0 |] |]
      ~b_output:[| 0.0 |]
      ~output_activation:Nn.Linear ~leak:0.5 ()
  in
  let sys = Discrete.of_rnn ~dt:0.1 rnn in
  let config =
    {
      (Discrete.default_config ~dim:3) with
      Discrete.smt =
        { Solver.default_options with Solver.delta = 1e-5; max_branches = 2_000_000 };
    }
  in
  match (Discrete.verify ~config ~rng:(Rng.create 5) sys).Engine.outcome with
  | Engine.Proved cert ->
    Alcotest.(check bool) "positive level" true (cert.Engine.level > 0.0);
    Alcotest.(check int) "six coefficients (3-var quadratic)" 6
      (Array.length cert.Engine.coeffs)
  | Engine.Failed _ -> Alcotest.fail "leaky RNN closed loop must prove"

(* --- Lyapunov mode ---------------------------------------------------- *)

let test_lyapunov_reference_proved () =
  let system =
    (Plant.close_exn Registry.dubins_error (Plant.Network Error_dynamics.reference_controller))
      .Plant.system
  in
  let report = Lyapunov.verify ~rng:(Rng.create 9) system in
  match report.Lyapunov.outcome with
  | Lyapunov.Proved cert ->
    (* The certificate must be positive definite. *)
    let p = Template.p_matrix cert.Lyapunov.template cert.Lyapunov.coeffs in
    Alcotest.(check bool) "P SPD" true (Cholesky.is_positive_definite p)
  | Lyapunov.Failed _ -> Alcotest.fail "Lyapunov mode must prove the reference controller"

let test_lyapunov_unstable_rejected () =
  let unstable_u = Plant.Analytic { label = "constant turn"; exprs = [| Expr.const (-0.5) |] } in
  let system = (Plant.close_exn Registry.dubins_error unstable_u).Plant.system in
  match (Lyapunov.verify ~rng:(Rng.create 9) system).Lyapunov.outcome with
  | Lyapunov.Proved _ -> Alcotest.fail "proved a constant-turn loop stable"
  | Lyapunov.Failed _ -> ()

(* --- SMT-LIB export ---------------------------------------------------- *)

let test_smt2_export () =
  let system =
    (Plant.close_exn Registry.dubins_error (Plant.Network Error_dynamics.reference_controller))
      .Plant.system
  in
  let report = Engine.verify ~rng:(Rng.create 2024) system in
  match report.Engine.outcome with
  | Engine.Failed _ -> Alcotest.fail "reference must prove"
  | Engine.Proved cert ->
    let dir = Filename.temp_file "smt2" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () ->
        let files = Engine.dump_smt2 system cert ~dir in
        Alcotest.(check int) "three queries" 3 (List.length files);
        List.iter
          (fun path ->
            Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
            let ic = open_in path in
            let content = really_input_string ic (in_channel_length ic) in
            close_in ic;
            Alcotest.(check bool) "declares logic" true
              (String.length content > 30
              && String.sub content 0 20 = "(set-logic QF_NRA)\n(");
            Alcotest.(check bool) "has check-sat" true
              (let rec contains i =
                 i + 11 <= String.length content
                 && (String.sub content i 11 = "(check-sat)" || contains (i + 1))
               in
               contains 0))
          files)

let () =
  Alcotest.run "discrete"
    [
      ( "rnn",
        [
          Alcotest.test_case "step by hand" `Quick test_rnn_step_by_hand;
          Alcotest.test_case "leak slows the state" `Quick test_rnn_leak_slows_state;
          Alcotest.test_case "param round-trip" `Quick test_rnn_param_roundtrip;
          Alcotest.test_case "validation" `Quick test_rnn_validation;
          QCheck_alcotest.to_alcotest prop_rnn_symbolic_matches;
        ] );
      ( "discrete engine",
        [
          Alcotest.test_case "delta symbolic = numeric" `Quick test_discrete_symbolic_matches_numeric;
          Alcotest.test_case "feedforward proved" `Quick test_discrete_feedforward_proved;
          Alcotest.test_case "unsafe rejected" `Quick test_discrete_unsafe_rejected;
          Alcotest.test_case "orbit truncation" `Quick test_discrete_orbit_truncation;
          Alcotest.test_case "rnn closed-loop consistency" `Quick test_rnn_closed_loop_consistency;
          Alcotest.test_case "rnn closed loop proved" `Slow test_rnn_closed_loop_proved;
        ] );
      ( "lyapunov",
        [
          Alcotest.test_case "reference proved" `Quick test_lyapunov_reference_proved;
          Alcotest.test_case "unstable rejected" `Quick test_lyapunov_unstable_rejected;
        ] );
      ( "smt2 export",
        [ Alcotest.test_case "query scripts" `Quick test_smt2_export ] );
    ]
