(* Tests for the feedforward NN library: evaluation, parameter round-trips,
   symbolic export equivalence, serialization, paper architecture. *)

let check_float = Alcotest.(check (float 1e-12))

let rng () = Rng.create 77

(* A fixed tiny network: 2 -> 2 tansig -> 1 linear. *)
let tiny =
  Nn.of_layers ~input_dim:2
    [
      {
        Nn.weights = [| [| 0.5; -0.3 |]; [| 0.1; 0.8 |] |];
        biases = [| 0.1; -0.2 |];
        activation = Nn.Tansig;
      };
      { Nn.weights = [| [| 1.0; -1.5 |] |]; biases = [| 0.25 |]; activation = Nn.Linear };
    ]

let test_eval_by_hand () =
  let h1 = Float.tanh ((0.5 *. 1.0) +. (-0.3 *. 2.0) +. 0.1) in
  let h2 = Float.tanh ((0.1 *. 1.0) +. (0.8 *. 2.0) +. (-0.2)) in
  let expected = (1.0 *. h1) -. (1.5 *. h2) +. 0.25 in
  check_float "hand computation" expected (Nn.eval1 tiny [| 1.0; 2.0 |])

let test_activations () =
  check_float "tansig" (Float.tanh 0.7) (Nn.apply_activation Nn.Tansig 0.7);
  check_float "logsig" (1.0 /. (1.0 +. Float.exp (-0.7))) (Nn.apply_activation Nn.Logsig 0.7);
  check_float "relu pos" 0.7 (Nn.apply_activation Nn.Relu 0.7);
  check_float "relu neg" 0.0 (Nn.apply_activation Nn.Relu (-0.7));
  check_float "linear" (-0.7) (Nn.apply_activation Nn.Linear (-0.7));
  List.iter
    (fun a ->
      Alcotest.(check bool) "name round-trip" true
        (Nn.activation_of_name (Nn.activation_name a) = a))
    [ Nn.Tansig; Nn.Logsig; Nn.Relu; Nn.Linear ]

let test_shape_validation () =
  Alcotest.check_raises "bad chaining"
    (Invalid_argument "Nn.of_layers: layer expects 3 inputs, got 2") (fun () ->
      ignore
        (Nn.of_layers ~input_dim:2
           [ { Nn.weights = [| [| 1.0; 2.0; 3.0 |] |]; biases = [| 0.0 |]; activation = Nn.Linear } ]))

let test_output_dim () =
  Alcotest.(check int) "output dim" 1 (Nn.output_dim tiny);
  Alcotest.(check (list int)) "hidden widths" [ 2 ] (Nn.hidden_widths tiny)

let test_param_count_paper () =
  (* Paper: (1×Nh) + (Nh×2) weights + (Nh+1) biases = 4·Nh + 1. *)
  List.iter
    (fun nh ->
      let net = Nn.controller ~rng:(rng ()) ~hidden:nh in
      Alcotest.(check int)
        (Printf.sprintf "4*%d+1 params" nh)
        ((4 * nh) + 1)
        (Nn.num_params net))
    [ 1; 10; 100 ]

let test_param_roundtrip () =
  let net = Nn.controller ~rng:(rng ()) ~hidden:7 in
  let theta = Nn.get_params net in
  let net2 = Nn.set_params net theta in
  let input = [| 0.4; -0.9 |] in
  check_float "same function" (Nn.eval1 net input) (Nn.eval1 net2 input);
  (* Perturbing one parameter changes the function. *)
  let theta' = Array.copy theta in
  theta'.(3) <- theta'.(3) +. 1.0;
  let net3 = Nn.set_params net theta' in
  Alcotest.(check bool) "perturbed differs" true
    (Float.abs (Nn.eval1 net input -. Nn.eval1 net3 input) > 1e-12
    || Float.abs (Nn.eval1 net [| 1.5; 0.5 |] -. Nn.eval1 net3 [| 1.5; 0.5 |]) > 1e-12)

let test_set_params_length_check () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Nn.set_params: parameter vector length mismatch") (fun () ->
      ignore (Nn.set_params tiny [| 1.0 |]))

let prop_symbolic_export_matches_eval =
  QCheck.Test.make ~name:"symbolic export equals numeric forward pass" ~count:100
    QCheck.(triple (int_range 1 20) (float_range (-3.0) 3.0) (float_range (-3.0) 3.0))
    (fun (nh, a, b) ->
      let net = Nn.controller ~rng:(Rng.create nh) ~hidden:nh in
      let sym = (Nn.to_exprs net [| Expr.var "a"; Expr.var "b" |]).(0) in
      let numeric = Nn.eval1 net [| a; b |] in
      let symbolic = Expr.eval_env [ ("a", a); ("b", b) ] sym in
      Float.abs (numeric -. symbolic) < 1e-9)

let prop_relu_symbolic =
  QCheck.Test.make ~name:"relu network symbolic export matches" ~count:50
    QCheck.(pair (int_range 0 1000) (float_range (-2.0) 2.0))
    (fun (seed, v) ->
      let net =
        Nn.create ~rng:(Rng.create seed) ~input_dim:1 [ (4, Nn.Relu); (1, Nn.Linear) ]
      in
      let sym = (Nn.to_exprs net [| Expr.var "v" |]).(0) in
      Float.abs (Nn.eval1 net [| v |] -. Expr.eval_env [ ("v", v) ] sym) < 1e-9)

(* --- fused forward pass ------------------------------------------------- *)

(* The composition [Nn.eval] must reproduce bit for bit. *)
let reference_eval net x =
  List.fold_left
    (fun v l ->
      Vec.map (Nn.apply_activation l.Nn.activation)
        (Vec.add (Mat.mul_vec l.Nn.weights v) l.Nn.biases))
    x net.Nn.layers

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun p q -> Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q)) a b

let activations = [| Nn.Tansig; Nn.Logsig; Nn.Relu; Nn.Linear |]

(* A network of 1–3 layers drawn from [seed]: each layer's width lies on
   one side of 256 or the other, its activation is any of the four. *)
let random_network seed =
  let rng = Rng.create seed in
  let width () = if Rng.int rng 2 = 0 then 1 + Rng.int rng 8 else 250 + Rng.int rng 20 in
  let spec =
    List.init (1 + Rng.int rng 3) (fun _ -> (width (), activations.(Rng.int rng 4)))
  in
  let input_dim = 1 + Rng.int rng 4 in
  let x = Array.init input_dim (fun _ -> Rng.uniform rng (-3.0) 3.0) in
  (Nn.create ~rng ~input_dim spec, x)

let prop_eval_bit_identical =
  QCheck.Test.make ~name:"fused eval is bit-identical to the layer composition" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let net, x = random_network seed in
      same_bits (Nn.eval net x) (reference_eval net x))

(* The hidden-layer scratch is per domain: two domains evaluating at once
   give the sequential results. *)
let test_eval_two_domains () =
  let inputs = Array.init 200 (fun i -> random_network (i mod 7)) in
  let run jobs = Pool.parallel_map ~jobs (fun (net, x) -> Nn.eval net x) inputs in
  let sequential = run 1 and parallel = run 2 in
  Array.iteri
    (fun i s ->
      if not (same_bits s parallel.(i)) then Alcotest.failf "input %d differs under jobs 2" i)
    sequential

let test_serialization_roundtrip () =
  let net = Nn.controller ~rng:(rng ()) ~hidden:5 in
  let s = Nn.to_string net in
  let net2 = Nn.of_string s in
  List.iter
    (fun input ->
      check_float "same outputs" (Nn.eval1 net input) (Nn.eval1 net2 input))
    [ [| 0.0; 0.0 |]; [| 1.0; -1.0 |]; [| -3.0; 2.0 |] ]

let test_serialization_file () =
  let net = Nn.controller ~rng:(rng ()) ~hidden:3 in
  let path = Filename.temp_file "nn_test" ".nn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Nn.save net path;
      let net2 = Nn.load path in
      check_float "file round-trip" (Nn.eval1 net [| 0.3; 0.7 |]) (Nn.eval1 net2 [| 0.3; 0.7 |]))

(* The certificate fingerprint hashes Nn.to_string, so serialization must be
   bit-exact: every float — negative zero, subnormals, values with no short
   decimal form — must survive the round-trip with an identical bit
   pattern. *)
let prop_serialization_bit_exact =
  let awkward =
    [
      0.0; -0.0; Float.min_float; -.Float.min_float;
      (* subnormals *)
      Float.min_float /. 4.0; -.(Float.min_float /. 1024.0); 4.9e-324;
      1.0 +. epsilon_float; -1e308; 0.1; 1.0 /. 3.0; Float.pi;
    ]
  in
  let gen_weight =
    QCheck.Gen.(
      oneof
        [ oneofl awkward; float_range (-10.0) 10.0; map (fun f -> f *. 1e-300) (float_range (-1.0) 1.0) ])
  in
  QCheck.Test.make ~name:"serialization round-trip is bit-exact" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 5) (list_size (return 12) gen_weight)))
    (fun (nh, ws) ->
      let net = Nn.controller ~rng:(Rng.create nh) ~hidden:nh in
      (* Overwrite a prefix of the parameter vector with the awkward draws. *)
      let theta = Nn.get_params net in
      List.iteri (fun i w -> if i < Array.length theta then theta.(i) <- w) ws;
      let net = Nn.set_params net theta in
      let net2 = Nn.of_string (Nn.to_string net) in
      let theta2 = Nn.get_params net2 in
      Array.length theta = Array.length theta2
      && Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           theta theta2
      && String.equal (Nn.to_string net) (Nn.to_string net2))

let test_decimal_backward_compat () =
  (* Files written by the old decimal format (and hand-written ones, like
     data/trained_nh10.nn) must still parse. *)
  let net =
    Nn.of_string "nn v1 input_dim 2 layers 1\nlayer 1 2 tansig\n0.5 -0.25\n0.125\n"
  in
  check_float "decimal weights parse" (Float.tanh ((0.5 *. 1.0) -. (0.25 *. 2.0) +. 0.125))
    (Nn.eval1 net [| 1.0; 2.0 |]);
  (* And a bit-exact round-trip through the new encoding. *)
  let net2 = Nn.of_string (Nn.to_string net) in
  Alcotest.(check string) "re-encoded identically" (Nn.to_string net) (Nn.to_string net2)

let test_of_string_errors () =
  (try
     ignore (Nn.of_string "garbage");
     Alcotest.fail "expected failure"
   with Failure _ -> ());
  try
    ignore (Nn.of_string "nn v1 input_dim 2 layers 1\nlayer 1 2 tansig\n0.0 0.0\n");
    Alcotest.fail "expected truncation failure"
  with Failure _ -> ()

let test_controller_output_bounded () =
  (* Tansig output layer: |u| < 1 everywhere. *)
  let net = Nn.controller ~rng:(rng ()) ~hidden:12 in
  let r = rng () in
  for _ = 1 to 500 do
    let u = Nn.eval1 net [| Rng.uniform r (-10.0) 10.0; Rng.uniform r (-3.0) 3.0 |] in
    if Float.abs u >= 1.0 then Alcotest.failf "tansig output %g out of (-1,1)" u
  done

let test_widen_preserves_function () =
  let base = Error_dynamics.reference_controller in
  List.iter
    (fun factor ->
      let wide = Nn.widen base ~factor in
      Alcotest.(check int) "width" (2 * factor) (List.hd (Nn.hidden_widths wide));
      let r = rng () in
      for _ = 1 to 100 do
        let input = [| Rng.uniform r (-5.0) 5.0; Rng.uniform r (-1.5) 1.5 |] in
        if Float.abs (Nn.eval1 base input -. Nn.eval1 wide input) > 1e-12 then
          Alcotest.failf "widen factor %d changed the function" factor
      done)
    [ 1; 3; 50 ]

let test_controller_of_width () =
  let net = Error_dynamics.controller_of_width 10 in
  Alcotest.(check (list int)) "width 10" [ 10 ] (Nn.hidden_widths net);
  let r = rng () in
  for _ = 1 to 100 do
    let input = [| Rng.uniform r (-5.0) 5.0; Rng.uniform r (-1.5) 1.5 |] in
    if
      Float.abs (Nn.eval1 net input -. Nn.eval1 Error_dynamics.reference_controller input) > 1e-12
    then Alcotest.fail "controller_of_width changed the function"
  done;
  Alcotest.check_raises "odd width rejected"
    (Invalid_argument "Error_dynamics.controller_of_width: width must be a positive multiple of 2")
    (fun () -> ignore (Error_dynamics.controller_of_width 7))

let () =
  Alcotest.run "nn"
    [
      ( "evaluation",
        [
          Alcotest.test_case "hand computation" `Quick test_eval_by_hand;
          Alcotest.test_case "activations" `Quick test_activations;
          Alcotest.test_case "shape validation" `Quick test_shape_validation;
          Alcotest.test_case "output dim" `Quick test_output_dim;
          Alcotest.test_case "bounded tansig output" `Quick test_controller_output_bounded;
          QCheck_alcotest.to_alcotest prop_eval_bit_identical;
          Alcotest.test_case "jobs 2 equals jobs 1" `Quick test_eval_two_domains;
        ] );
      ( "parameters",
        [
          Alcotest.test_case "paper parameter count" `Quick test_param_count_paper;
          Alcotest.test_case "round-trip" `Quick test_param_roundtrip;
          Alcotest.test_case "length check" `Quick test_set_params_length_check;
        ] );
      ( "symbolic",
        [
          QCheck_alcotest.to_alcotest prop_symbolic_export_matches_eval;
          QCheck_alcotest.to_alcotest prop_relu_symbolic;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "string round-trip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "file round-trip" `Quick test_serialization_file;
          Alcotest.test_case "malformed input" `Quick test_of_string_errors;
          Alcotest.test_case "decimal backward compat" `Quick test_decimal_backward_compat;
          QCheck_alcotest.to_alcotest prop_serialization_bit_exact;
        ] );
      ( "widening",
        [
          Alcotest.test_case "function preserved" `Quick test_widen_preserves_function;
          Alcotest.test_case "controller_of_width" `Quick test_controller_of_width;
        ] );
    ]
