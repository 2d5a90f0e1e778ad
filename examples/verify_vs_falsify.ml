(* Verification vs. falsification on the same controllers — the two
   complementary methodologies the paper discusses.

   A falsifier (robustness-minimizing simulation search) can only ever
   demonstrate *unsafety*; the barrier pipeline proves *safety*.  This
   example runs both on a safe and an unsafe controller and shows the four
   quadrants.

   Run with: dune exec examples/verify_vs_falsify.exe *)

let pf = Format.printf

let analyze name net =
  pf "@.--- %s ---@." name;
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let config = Engine.default_config in
  (* Verification. *)
  let report = Engine.verify ~config ~rng:(Rng.create 7) system in
  (match report.Engine.outcome with
  | Engine.Proved cert ->
    pf "verifier:  SAFE — barrier B(x) = W(x) - %.4f (unbounded-time guarantee)@."
      cert.Engine.level
  | Engine.Failed _ -> pf "verifier:  inconclusive (no certificate found)@.");
  (* Falsification. *)
  match
    Falsify.falsify ~rng:(Rng.create 13) ~field:system.Engine.numeric_field
      ~x0_rect:config.Engine.x0_rect ~safe_rect:config.Engine.safe_rect ()
  with
  | Falsify.Falsified { x0; robustness; _ } ->
    pf "falsifier: UNSAFE — from (%.3f, %.3f) the car leaves the safe set (margin %.3f)@."
      x0.(0) x0.(1) robustness
  | Falsify.Not_falsified { best_robustness; evaluations; _ } ->
    pf "falsifier: no violation in %d rollouts (best margin %.3f) — but this proves nothing@."
      evaluations best_robustness

let () =
  analyze "stabilizing controller (u = 0.6 tanh(0.8 d) + 0.8 tanh(th))"
    Error_dynamics.reference_controller;
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
  analyze "destabilizing controller (sign-flipped gains)" destabilizing;
  pf
    "@.The verifier certifies the first controller for *all* initial states and all@.\
     time; the falsifier condemns the second with a single concrete trajectory.@.\
     Where the verifier is inconclusive and the falsifier finds nothing, neither@.\
     method has an answer — that gap is the paper's motivation for completeness@.\
     via delta-decidability.@."
