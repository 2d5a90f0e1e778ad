(* Discrete-time verification with stateful (recurrent) controllers — the
   paper's "future work" section, implemented.

   A recurrent controller's hidden state becomes part of the verified state
   space: the closed loop is a discrete-time map over [derr; θ_err; h], and
   the barrier conditions are checked over the augmented box.  This example
   verifies a feedforward baseline, a leaky recurrent controller and the
   same recurrent weights under a hard Elman update (no leak), printing
   the verdict the engine returns for each.

   Run with: dune exec examples/stateful_controllers.exe
   (the recurrent verification explores a 3-D state space; allow a few
   minutes) *)

let pf = Format.printf

let describe name report =
  let st = report.Engine.stats in
  match report.Engine.outcome with
  | Engine.Proved cert ->
    pf "%-22s PROVED   level %.4f, %d iteration(s), %d counterexample(s), %.1f s@." name
      cert.Engine.level st.Engine.candidate_iterations
      (List.length report.Engine.counterexamples)
      st.Engine.total_time
  | Engine.Failed reason ->
    pf "%-22s no proof (%s), %.1f s@." name (Cegis.string_of_failure reason)
      st.Engine.total_time

let () =
  (* Baseline: the feedforward reference controller in discrete time
     (forward-Euler plant, dt = 0.1). *)
  let ff = Discrete.of_network ~dt:0.1 Error_dynamics.reference_controller in
  describe "feedforward (dt=0.1)" (Discrete.verify ~rng:(Rng.create 5) ff);

  (* A leaky recurrent controller approximating the same control law:
     h' = (1-λ)h + λ·tanh(0.48 d + 0.64 θ + 0.2 h),  u = 1.25 h'.
     Near its fixed point h* ≈ 0.6 d + 0.8 θ, so u ≈ 0.75 d + θ — the
     reference gains — but with genuine internal memory. *)
  let rnn leak =
    Rnn.of_weights
      ~w_input:[| [| 0.48; 0.64 |] |]
      ~w_recurrent:[| [| 0.2 |] |]
      ~b_hidden:[| 0.0 |]
      ~w_output:[| [| 1.25 |] |]
      ~b_output:[| 0.0 |]
      ~output_activation:Nn.Linear ~leak ()
  in
  (* Simulate first (the informal validation step). *)
  let sys = Discrete.of_rnn ~dt:0.1 (rnn 0.2) in
  let orbit = Discrete.iterate sys (Discrete.default_config ~dim:3) [| 3.0; 0.5; 0.0 |] in
  let final = Ode.final_state orbit in
  pf "leaky RNN orbit from (3.0, 0.5, h=0): %d steps to (%.4f, %.4f, %.4f)@."
    (Ode.trace_length orbit) final.(0) final.(1) final.(2);

  (* Verify over the augmented (derr, θ_err, h) box.  The hidden state
     needs a tighter δ than the planar case: the certificate's margin per
     step is small, and coarse boxes produce spurious δ-sat witnesses. *)
  let config =
    {
      (Discrete.default_config ~dim:3) with
      Discrete.smt =
        { Solver.default_options with Solver.delta = 1e-5; max_branches = 3_000_000 };
    }
  in
  describe "leaky RNN (lambda=0.2)" (Discrete.verify ~config ~rng:(Rng.create 5) sys);
  (* Expected: PROVED with a tilted ellipsoid certificate mixing plant and
     hidden-state coordinates (see EXPERIMENTS.md for the exact W). *)
  (* A hard Elman update (lambda = 1) moves h by up to tanh(-1.44) ≈ -0.89
     in one step from (d, θ, h) = (-3, 0, 0); whether a quadratic
     certificate still exists is the engine's call, printed as returned. *)
  describe "hard Elman (lambda=1)"
    (Discrete.verify ~config ~rng:(Rng.create 5) (Discrete.of_rnn ~dt:0.1 (rnn 1.0)))
