(* Quickstart: prove unbounded-time safety of an NN-controlled Dubins car.

   The closed loop is the paper's case study: error dynamics
   [ḋerr = V sin θerr (paper form); θ̇err = −u] with a feedforward tansig
   controller u = h(derr, θerr).  We:

     1. take a stabilizing two-neuron controller,
     2. run the simulation-guided barrier pipeline (Figure 1 of the paper),
     3. print the certificate and sanity-check it at a few points.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. The controller: u = 0.6·tanh(0.8·derr) + 0.8·tanh(θerr). *)
  let controller = Error_dynamics.reference_controller in
  Format.printf "controller: %d parameters, u(1.0, 0.1) = %.4f@."
    (Nn.num_params controller)
    (Nn.eval1 controller [| 1.0; 0.1 |]);

  (* 2. Close the loop symbolically and numerically, then verify. *)
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network controller)).Plant.system in
  let report = Engine.verify ~rng:(Rng.create 2024) system in

  (match report.Engine.outcome with
  | Engine.Proved cert ->
    Format.printf "@.SAFE: the system never reaches the unsafe set from X0.@.";
    Format.printf "  generator  W(x) = %s@."
      (Expr.to_string (Template.w_expr cert.Engine.template cert.Engine.coeffs));
    Format.printf "  barrier    B(x) = W(x) - %.6f@." cert.Engine.level;

    (* 3. Sanity checks: B <= 0 on X0 samples, B > 0 on unsafe samples. *)
    let w = Template.w_eval cert.Engine.template cert.Engine.coeffs in
    let b x = w x -. cert.Engine.level in
    Format.printf "@.  B(0, 0)        = %+.4f   (inside X0: must be <= 0)@." (b [| 0.0; 0.0 |]);
    Format.printf "  B(1, pi/16)    = %+.4f   (corner of X0: must be <= 0)@."
      (b [| 1.0; Float.pi /. 16.0 |]);
    Format.printf "  B(5.1, 0)      = %+.4f   (unsafe: must be > 0)@." (b [| 5.1; 0.0 |]);
    Format.printf "  B(0, 1.53)     = %+.4f   (unsafe: must be > 0)@." (b [| 0.0; 1.53 |])
  | Engine.Failed _ -> Format.printf "verification failed (unexpected for this controller)@.");

  let st = report.Engine.stats in
  Format.printf "@.pipeline: %d LP/SMT iteration(s), %.3f s total@."
    st.Engine.candidate_iterations st.Engine.total_time
