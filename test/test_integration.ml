(* End-to-end integration tests of the full verification pipeline
   (paper Figure 1), including failure injection with unsafe controllers
   and validation of the produced certificates against the definition of a
   strict barrier certificate. *)

(* The paper's case study closed around [net]. *)
let dubins_system net =
  (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system

let reference_system = dubins_system Error_dynamics.reference_controller

let verify ?config seed system =
  Engine.verify ?config ~rng:(Rng.create seed) system

let proved name report =
  match report.Engine.outcome with
  | Engine.Proved cert -> cert
  | Engine.Failed reason ->
    Alcotest.failf "%s: expected Proved, got %s" name (Cegis.string_of_failure reason)

(* --- The paper's case study ---------------------------------------------- *)

let test_reference_controller_proved () =
  let report = verify 2024 reference_system in
  let cert = proved "reference" report in
  Alcotest.(check bool) "positive level" true (cert.Engine.level > 0.0);
  (* Certificate P must be positive definite (ellipsoidal level sets). *)
  let p = Template.p_matrix cert.Engine.template cert.Engine.coeffs in
  Alcotest.(check bool) "P SPD" true (Cholesky.is_positive_definite p)

let test_certificate_satisfies_barrier_conditions () =
  (* Spot-check the three strict-barrier conditions numerically on dense
     samples (the SMT solver already proved them; this guards the glue). *)
  let report = verify 2024 reference_system in
  let cert = proved "reference" report in
  let w = Template.w_eval cert.Engine.template cert.Engine.coeffs in
  let level = cert.Engine.level in
  let config = Engine.default_config in
  let rng = Rng.create 555 in
  (* (1) B <= 0 on X0. *)
  for _ = 1 to 2000 do
    let x = [| Rng.uniform rng (-1.0) 1.0; Rng.uniform rng (-.Float.pi /. 16.0) (Float.pi /. 16.0) |] in
    if w x -. level > 1e-9 then Alcotest.failf "B > 0 inside X0 at (%g, %g)" x.(0) x.(1)
  done;
  (* (2) B > 0 on (sampled) U: just outside the safe rect. *)
  let half_pi = Float.pi /. 2.0 in
  for _ = 1 to 2000 do
    let on_x_face = Rng.float rng < 0.5 in
    let x =
      if on_x_face then
        [| (if Rng.float rng < 0.5 then -5.001 else 5.001); Rng.uniform rng (-.(half_pi -. 0.05)) (half_pi -. 0.05) |]
      else [| Rng.uniform rng (-5.0) 5.0; (if Rng.float rng < 0.5 then -1.0 else 1.0) *. (half_pi -. 0.0499) |]
    in
    if w x -. level <= 0.0 then Alcotest.failf "B <= 0 on U at (%g, %g)" x.(0) x.(1)
  done;
  (* (3) ∇W·f < 0 on a dense grid over D \ X0. *)
  let grads = Template.grad_exprs cert.Engine.template cert.Engine.coeffs in
  let lie d th =
    let env = [ (Error_dynamics.var_derr, d); (Error_dynamics.var_theta_err, th) ] in
    let f = reference_system.Engine.numeric_field 0.0 [| d; th |] in
    (Expr.eval_env env grads.(0) *. f.(0)) +. (Expr.eval_env env grads.(1) *. f.(1))
  in
  let inside_x0 d th = Float.abs d <= 1.0 && Float.abs th <= Float.pi /. 16.0 in
  Array.iter
    (fun d ->
      Array.iter
        (fun th ->
          if not (inside_x0 d th) then begin
            let v = lie d th in
            if v >= -.config.Engine.gamma then
              Alcotest.failf "∇W·f = %g >= -γ at (%g, %g)" v d th
          end)
        (Floatx.linspace (-.(half_pi -. 0.05)) (half_pi -. 0.05) 41))
    (Floatx.linspace (-5.0) 5.0 41)

let test_widened_controllers_proved () =
  List.iter
    (fun width ->
      let system = dubins_system (Error_dynamics.controller_of_width width) in
      let report = verify 11 system in
      ignore (proved (Printf.sprintf "width %d" width) report))
    [ 10; 40 ]

let test_pretrained_controller_proved () =
  (* The CMA-ES-trained controller shipped with the repository. *)
  let path = "../data/trained_nh10.nn" in
  if Sys.file_exists path then begin
    let net = Nn.load path in
    let system = dubins_system net in
    let report = verify 7 system in
    let cert = proved "pretrained" report in
    Alcotest.(check bool) "level positive" true (cert.Engine.level > 0.0)
  end

let test_pretrained_delta_refinements () =
  (* The trained controller's condition (5) has witnesses whose exact
     margin is below the solver's δ: the CEGIS loop re-decides them at a
     tighter δ instead of cutting, and counts each retry. *)
  let net = Nn.load "../data/trained_nh10.nn" in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let report =
    Fun.protect ~finally:Obs.Metrics.disable (fun () -> verify 7 (dubins_system net))
  in
  ignore (proved "pretrained" report);
  let refinements = Obs.Metrics.value (Obs.Metrics.counter "cegis.delta_refinements") in
  Obs.Metrics.reset ();
  Alcotest.(check bool) (Printf.sprintf "%d delta refinements > 0" refinements) true
    (refinements > 0)

(* Every registry scenario at jobs 1 under the CLI's default seed, as
   `scenarios run --jobs 1` runs them. *)
let registry_reports () =
  List.map
    (fun (e : Registry.entry) ->
      match Registry.elaborate { e.Registry.scenario with Scenario.jobs = Some 1 } with
      | Error why -> Alcotest.failf "%s: %s" e.Registry.name why
      | Ok el ->
        Engine.verify ~config:el.Scenario.config ~rng:(Rng.create 7)
          el.Scenario.closed.Plant.system)
    (Registry.scenarios ())

let test_registry_counters_pinned () =
  (* At jobs 1 the search is deterministic, so these counters are the
     search itself: a change to the interval kernels, the tape or the
     solver that means to keep the search keeps them, and one that changes
     it updates them with a reason. *)
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable (fun () ->
      ignore (registry_reports () : Engine.report list));
  let expect name v = Alcotest.(check int) name v (Obs.Metrics.value (Obs.Metrics.counter name)) in
  expect "solver.branches" 7_197;
  expect "solver.hc4_revise" 20_131;
  expect "solver.prunes" 3_604;
  expect "solver.prunes_mvf" 1_074;
  expect "tape.compile" 150;
  expect "cegis.cex_cuts" 4;
  expect "cegis.delta_refinements" 17;
  expect "lp.pivots" 201;
  expect "level_search.bisections" 9;
  Obs.Metrics.reset ()

(* One FNV-1a (64-bit) step per byte of [bits], into the state [h]. *)
let fnv1a_bits h bits =
  for b = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical bits (8 * b)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done

(* FNV-1a (64-bit) over the bits of every time and state coordinate of
   [traces], byte by byte: equal hashes mean bit-identical traces. *)
let fnv1a_traces traces =
  let h = ref 0xcbf29ce484222325L in
  let add_float v = fnv1a_bits h (Int64.bits_of_float v) in
  List.iter
    (fun tr ->
      Array.iteri
        (fun i t ->
          add_float t;
          Array.iter add_float tr.Ode.states.(i))
        tr.Ode.times)
    traces;
  !h

(* FNV-1a (64-bit) over every registry scenario's condition (5) cover at
   jobs 1: its δ, then per disjunct the node count, the nodes and the split
   points, and a marker for a scenario with no cover.  Equal hashes mean
   the same proofs, box for box, so a search change that keeps every
   verdict and cover (such as one that only moves where a doomed box is
   pruned) keeps this hash. *)
let test_registry_covers_pinned () =
  let h = ref 0xcbf29ce484222325L in
  let add_int i = fnv1a_bits h (Int64.of_int i) in
  let covered = ref 0 and nodes = ref 0 in
  List.iter
    (fun (r : Engine.report) ->
      match r.Engine.cover with
      | None -> add_int (-1)
      | Some c ->
        incr covered;
        fnv1a_bits h (Int64.bits_of_float c.Solver.delta);
        add_int (Array.length c.Solver.trees);
        Array.iter
          (fun (t : Solver.tree) ->
            add_int (Array.length t.Solver.nodes);
            nodes := !nodes + Array.length t.Solver.nodes;
            Array.iter add_int t.Solver.nodes;
            Array.iter (fun p -> fnv1a_bits h (Int64.bits_of_float p)) t.Solver.points)
          c.Solver.trees)
    (registry_reports ());
  Alcotest.(check (pair int int)) "scenarios with a cover, cover nodes" (9, 5_458) (!covered, !nodes);
  Alcotest.(check string) "FNV-1a of the covers" "2c3313fa7fbbd95a" (Printf.sprintf "%Lx" !h)

let test_seed_traces_pinned () =
  (* Seed simulation exactly as the engine runs it (default rect, dt,
     steps and convergence radius) on one NN field and two registry point
     tapes.  The LP rows, and so every search counter and store
     fingerprint downstream, are these bits: an integrator change that
     means to keep them keeps this hash.  Per field, the last x0 starts
     outside the rect (a trace of x0 alone) and one trace leaves it. *)
  let config = Engine.default_config in
  let field_of name =
    match Registry.find_scenario name with
    | None -> Alcotest.failf "no scenario %s" name
    | Some e -> (
      match Registry.elaborate e.Registry.scenario with
      | Error why -> Alcotest.failf "%s: %s" name why
      | Ok el -> el.Scenario.closed.Plant.system.Engine.numeric_field)
  in
  let fields =
    [
      ( Error_dynamics.field_of_network Error_dynamics.default_config
          (Error_dynamics.controller_of_width 10),
        [ [| 3.0; 0.5 |]; [| -4.5; 1.2 |]; [| 4.9; 1.5 |]; [| -1.0; -1.4 |]; [| 0.3; 0.02 |];
          [| 6.0; 0.0 |] ] );
      ( field_of "poly-2d",
        [ [| 0.8; -0.6 |]; [| -4.0; 1.0 |]; [| 4.5; -1.5 |]; [| 0.1; 0.1 |]; [| -2.0; -0.5 |];
          [| 0.0; 2.0 |] ] );
      ( field_of "van-der-pol-reversed",
        [ [| 0.5; 0.5 |]; [| -0.8; 0.2 |]; [| 2.5; 0.0 |]; [| 0.0; -1.0 |]; [| 1.5; 1.0 |];
          [| -5.5; 0.0 |] ] );
    ]
  in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let traces =
    Fun.protect ~finally:Obs.Metrics.disable (fun () ->
        List.concat_map
          (fun (field, x0s) ->
            List.map
              (Cegis.simulate ~rect:config.Engine.safe_rect ~dt:config.Engine.sim_dt
                 ~steps:config.Engine.sim_steps ~converged:1e-4 field)
              x0s)
          fields)
  in
  let evals = Obs.Metrics.value (Obs.Metrics.counter "ode.field_evals") in
  Obs.Metrics.reset ();
  Alcotest.(check (list int))
    "samples per trace"
    [ 401; 401; 3; 401; 401; 1; 338; 371; 372; 291; 349; 1; 359; 385; 6; 368; 5; 1 ]
    (List.map Ode.trace_length traces);
  Alcotest.(check int) "ode.field_evals" 5_991 evals;
  Alcotest.(check string) "FNV-1a of the trace bits" "d12e482abcf0e3a5"
    (Printf.sprintf "%Lx" (fnv1a_traces traces))

let test_traces_end_in_x0 () =
  (* Every trace the engine returns, seeds and counterexample traces alike,
     ends at its first sample inside X0 and is, up to there, the trace
     simulated without that stop.  Inverted-pendulum at rng 7 cuts three
     counterexamples, so its traces include theirs. *)
  let registry name =
    match Registry.find_scenario name with
    | None -> Alcotest.failf "no scenario %s" name
    | Some e -> (
      match Registry.elaborate { e.Registry.scenario with Scenario.jobs = Some 1 } with
      | Error why -> Alcotest.failf "%s: %s" name why
      | Ok el -> (el.Scenario.config, el.Scenario.closed.Plant.system))
  in
  let ip_config, ip_system = registry "inverted-pendulum" in
  List.iter
    (fun (name, config, system, seed, min_traces) ->
      let report = Engine.verify ~config ~rng:(Rng.create seed) system in
      let traces = report.Engine.traces in
      Alcotest.(check bool) (name ^ ": traces") true (List.length traces >= min_traces);
      List.iter
        (fun tr ->
          let n = Ode.trace_length tr in
          for i = 0 to n - 2 do
            if Cegis.in_rect config.Engine.x0_rect tr.Ode.states.(i) then
              Alcotest.failf "%s: sample %d of %d lies in X0" name i n
          done;
          let full =
            Cegis.simulate ~rect:config.Engine.safe_rect ~dt:config.Engine.sim_dt
              ~steps:config.Engine.sim_steps ~converged:1e-4 system.Engine.numeric_field
              tr.Ode.states.(0)
          in
          let bits = Array.map Int64.bits_of_float in
          if Ode.trace_length full < n then Alcotest.failf "%s: a stopped trace grew" name;
          for i = 0 to n - 1 do
            if Int64.bits_of_float tr.Ode.times.(i) <> Int64.bits_of_float full.Ode.times.(i)
               || bits tr.Ode.states.(i) <> bits full.Ode.states.(i)
            then Alcotest.failf "%s: sample %d differs from the unstopped trace" name i
          done)
        traces)
    [
      ("dubins", Engine.default_config, reference_system, 2024, 20);
      ("inverted-pendulum", ip_config, ip_system, 7, 23);
    ]

let test_determinism () =
  let r1 = verify 99 reference_system and r2 = verify 99 reference_system in
  match (r1.Engine.outcome, r2.Engine.outcome) with
  | Engine.Proved c1, Engine.Proved c2 ->
    Alcotest.(check (float 1e-12)) "same level" c1.Engine.level c2.Engine.level;
    Alcotest.(check bool) "same coeffs" true (c1.Engine.coeffs = c2.Engine.coeffs)
  | _ -> Alcotest.fail "both runs should prove"

let test_stats_populated () =
  let report = verify 2024 reference_system in
  let st = report.Engine.stats in
  Alcotest.(check bool) "iterations >= 1" true (st.Engine.candidate_iterations >= 1);
  Alcotest.(check bool) "level iterations >= 1" true (st.Engine.level_iterations >= 1);
  Alcotest.(check bool) "lp time > 0" true (st.Engine.lp_time > 0.0);
  Alcotest.(check bool) "smt5 called" true (st.Engine.smt5_calls >= 1);
  Alcotest.(check bool) "rows recorded" true (st.Engine.lp_rows > 0);
  Alcotest.(check bool) "total covers parts" true
    (st.Engine.total_time >= st.Engine.lp_time +. st.Engine.smt5_time)

(* --- Failure injection ----------------------------------------------------- *)

let constant_controller c =
  Nn.of_layers ~input_dim:2
    [ { Nn.weights = [| [| 0.0; 0.0 |] |]; biases = [| c |]; activation = Nn.Linear } ]

let test_unsafe_zero_controller () =
  (* u = 0: θerr never changes, derr drifts — nothing decreases.  The
     pipeline must fail, not prove. *)
  let system = dubins_system (constant_controller 0.0) in
  let report = verify 5 system in
  (match report.Engine.outcome with
  | Engine.Proved _ -> Alcotest.fail "proved an unsafe (zero) controller"
  | Engine.Failed _ -> ())

let test_unsafe_destabilizing_controller () =
  (* u = -0.5·tanh(derr) - 0.5·tanh(θerr): positive feedback. *)
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
  let system = dubins_system bad in
  let report = verify 5 system in
  (match report.Engine.outcome with
  | Engine.Proved _ -> Alcotest.fail "proved a destabilizing controller"
  | Engine.Failed _ -> ())

let test_saturated_controller_rejected () =
  (* u = +1 constant: rotates forever, no barrier. *)
  let system = dubins_system (constant_controller 1.0) in
  let report = verify 5 system in
  match report.Engine.outcome with
  | Engine.Proved _ -> Alcotest.fail "proved a constant-turn controller"
  | Engine.Failed _ -> ()

(* --- Config variations ------------------------------------------------------ *)

let test_lie_mode_pipeline () =
  let config =
    {
      Engine.default_config with
      Engine.synthesis =
        {
          Engine.default_config.Engine.synthesis with
          Synthesis.mode = Synthesis.Lie_derivative;
        };
    }
  in
  let report = verify 2024 ~config reference_system in
  ignore (proved "lie mode" report)

let test_quadratic_linear_template () =
  let config = { Engine.default_config with Engine.template_kind = Template.Quadratic_linear } in
  let report = verify 2024 ~config reference_system in
  (* The augmented template must also succeed (linear terms may be ~0). *)
  let cert = proved "quadratic+linear" report in
  Alcotest.(check int) "five coefficients" 5 (Array.length cert.Engine.coeffs)

let test_tight_cex_budget_inconclusive () =
  (* With zero CEX iterations allowed the pipeline cannot even run one LP:
     expect a failure, never a bogus proof. *)
  let config = { Engine.default_config with Engine.max_candidate_iters = 0 } in
  let report = verify 2024 ~config reference_system in
  match report.Engine.outcome with
  | Engine.Failed Engine.Cex_budget_exhausted -> ()
  | Engine.Failed _ -> ()
  | Engine.Proved _ -> Alcotest.fail "proved with zero budget"

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "reference controller proved" `Quick test_reference_controller_proved;
          Alcotest.test_case "certificate conditions hold" `Quick
            test_certificate_satisfies_barrier_conditions;
          Alcotest.test_case "widened controllers proved" `Slow test_widened_controllers_proved;
          Alcotest.test_case "pretrained controller proved" `Slow test_pretrained_controller_proved;
          Alcotest.test_case "pretrained delta refinements" `Slow
            test_pretrained_delta_refinements;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "registry search counters pinned" `Quick
            test_registry_counters_pinned;
          Alcotest.test_case "registry covers pinned" `Quick test_registry_covers_pinned;
          Alcotest.test_case "seed traces pinned" `Quick test_seed_traces_pinned;
          Alcotest.test_case "traces end in X0" `Quick test_traces_end_in_x0;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "zero controller rejected" `Quick test_unsafe_zero_controller;
          Alcotest.test_case "destabilizing controller rejected" `Quick
            test_unsafe_destabilizing_controller;
          Alcotest.test_case "constant-turn controller rejected" `Quick
            test_saturated_controller_rejected;
        ] );
      ( "config variants",
        [
          Alcotest.test_case "lie-derivative mode" `Slow test_lie_mode_pipeline;
          Alcotest.test_case "quadratic+linear template" `Slow test_quadratic_linear_template;
          Alcotest.test_case "zero budget fails safely" `Quick test_tight_cex_budget_inconclusive;
        ] );
    ]
