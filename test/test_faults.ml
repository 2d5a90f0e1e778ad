(* Fault-injection harness for the resilience layer (the acceptance test of
   the robustness PR): every pipeline stage must return a *structured*
   failure within its deadline when the dynamics are faulty — no hangs, no
   NaN escaping into a certificate, no unstructured exceptions. *)

let reference_system =
  (Plant.close_exn Registry.dubins_error (Plant.Network Error_dynamics.reference_controller))
    .Plant.system

let faulty_system injection =
  {
    reference_system with
    Engine.numeric_field = Faults.wrap_field injection reference_system.Engine.numeric_field;
  }

(* --- Ode-level guards -------------------------------------------------- *)

let test_simulate_truncates_nan () =
  let field = Faults.wrap_field (Faults.Nan_after 5) (fun _t x -> [| -.x.(0); -.x.(1) |]) in
  let tr = Ode.simulate_until field ~t0:0.0 ~x0:[| 1.0; 1.0 |] ~dt:0.1 ~t_end:5.0 in
  Alcotest.(check bool) "trace truncated" true (Ode.trace_length tr < 51);
  Array.iter
    (fun x ->
      if not (Array.for_all Float.is_finite x) then
        Alcotest.fail "non-finite state left in trace")
    tr.Ode.states

let test_simulate_until_truncates_inf () =
  let field = Faults.wrap_field (Faults.Inf_after 3) (fun _t x -> [| -.x.(0) |]) in
  let tr = Ode.simulate_until field ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.1 ~t_end:10.0 in
  Alcotest.(check bool) "truncated before t_end" true
    (tr.Ode.times.(Ode.trace_length tr - 1) < 10.0 -. 0.05);
  Array.iter
    (fun x ->
      if not (Array.for_all Float.is_finite x) then
        Alcotest.fail "non-finite state left in trace")
    tr.Ode.states

let test_rk45_truncates_nan () =
  let field = Faults.wrap_field (Faults.Nan_after 10) (fun _t x -> [| -.x.(0) |]) in
  let tr = Ode.simulate_rk45 field ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.1 ~t_end:5.0 in
  Alcotest.(check bool) "truncated before t_end" true
    (tr.Ode.times.(Ode.trace_length tr - 1) < 5.0 -. 0.05);
  Array.iter
    (fun x ->
      if not (Array.for_all Float.is_finite x) then
        Alcotest.fail "non-finite state left in trace")
    tr.Ode.states

let test_rk45_truncates_on_underflow () =
  (* Every other call scaled by 1e12: no step passes error control, so the
     step shrinks below its floor and the trace ends where it stood. *)
  let field = Faults.wrap_field (Faults.Ill_conditioned 1e12) (fun _t x -> [| -.x.(0) |]) in
  let tr = Ode.simulate_rk45 field ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.1 ~t_end:5.0 in
  Alcotest.(check int) "only the initial sample" 1 (Ode.trace_length tr)

let test_divergence_truncates () =
  (* A geometrically exploding field leaves the safe rectangle (or
     overflows to infinity) quickly; the trace must end at finite states. *)
  let field = Faults.wrap_field (Faults.Divergence 4.0) (fun _t x -> [| x.(0); x.(1) |]) in
  let tr = Ode.simulate_until field ~t0:0.0 ~x0:[| 1.0; 1.0 |] ~dt:0.5 ~t_end:100.0 in
  Array.iter
    (fun x ->
      if not (Array.for_all Float.is_finite x) then
        Alcotest.fail "divergent trace contains non-finite state")
    tr.Ode.states

(* --- Engine under faults ----------------------------------------------- *)

let failure_of report =
  match report.Engine.outcome with
  | Engine.Proved _ -> Alcotest.fail "faulty dynamics must not yield a certificate"
  | Engine.Failed reason -> reason

(* The headline acceptance criterion: a stalled field under a 2 s deadline
   returns Failed (Timeout _) with populated stats in well under 3 s. *)
let test_stalled_field_respects_deadline () =
  let system = faulty_system (Faults.Stall 0.05) in
  let budget = Budget.with_timeout 2.0 in
  let t0 = Timing.now () in
  let report = Engine.verify ~budget ~rng:(Rng.create 11) system in
  let elapsed = Timing.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned in %.2f s (deadline 2 s)" elapsed)
    true (elapsed < 3.0);
  (match failure_of report with
  | Engine.Timeout _ -> ()
  | _ -> Alcotest.fail "expected a structured Timeout");
  (match report.Engine.stats.Engine.budget_stop with
  | Some Budget.Deadline -> ()
  | _ -> Alcotest.fail "stats must record the deadline stop");
  (* Per-stage stats are populated: the time went into simulation. *)
  Alcotest.(check bool) "sim time accounted" true
    (report.Engine.stats.Engine.sim_time > 0.0);
  Alcotest.(check bool) "total time accounted" true
    (report.Engine.stats.Engine.total_time > 0.0)

let test_nan_field_structured_failure () =
  (* NaN dynamics from the start: traces collapse to their initial sample,
     the LP sees only finite rows, and the pipeline fails structurally. *)
  let system = faulty_system (Faults.Nan_after 1) in
  let budget = Budget.with_timeout 30.0 in
  let report = Engine.verify ~budget ~rng:(Rng.create 12) system in
  ignore (failure_of report);
  List.iter
    (fun tr ->
      Array.iter
        (fun x ->
          if not (Array.for_all Float.is_finite x) then
            Alcotest.fail "NaN state reached the engine's traces")
        tr.Ode.states)
    report.Engine.traces

let test_divergent_field_no_hang () =
  let system = faulty_system (Faults.Divergence 10.0) in
  let budget = Budget.with_timeout 30.0 in
  let report = Engine.verify ~budget ~rng:(Rng.create 13) system in
  ignore (failure_of report)

let test_ill_conditioned_lp_survives () =
  (* Wildly mis-scaled field outputs produce ill-conditioned LP rows; the
     pipeline must fail structurally (or prove soundly), never crash. *)
  let system = faulty_system (Faults.Ill_conditioned 1e12) in
  let budget = Budget.with_timeout 30.0 in
  let report = Engine.verify ~budget ~rng:(Rng.create 14) system in
  match report.Engine.outcome with
  | Engine.Proved _ | Engine.Failed _ -> ()

(* --- Discrete engine under faults -------------------------------------- *)

let test_discrete_stalled_map_deadline () =
  let base = Discrete.of_network ~dt:0.1 Error_dynamics.reference_controller in
  let system =
    { base with Discrete.map_numeric = Faults.wrap_map (Faults.Stall 0.05) base.Discrete.map_numeric }
  in
  let budget = Budget.with_timeout 2.0 in
  let t0 = Timing.now () in
  let report = Discrete.verify ~budget ~rng:(Rng.create 21) system in
  let elapsed = Timing.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned in %.2f s (deadline 2 s)" elapsed)
    true (elapsed < 3.0);
  match report.Engine.outcome with
  | Engine.Proved _ -> Alcotest.fail "stalled map must not yield a certificate"
  | Engine.Failed (Engine.Timeout _) -> ()
  | Engine.Failed _ -> Alcotest.fail "expected a structured Timeout"

let test_discrete_nan_map_truncates () =
  let base = Discrete.of_network ~dt:0.1 Error_dynamics.reference_controller in
  let system =
    { base with Discrete.map_numeric = Faults.wrap_map (Faults.Nan_after 3) base.Discrete.map_numeric }
  in
  let config = Discrete.default_config ~dim:2 in
  let tr = Discrete.iterate system config [| 0.5; 0.1 |] in
  Array.iter
    (fun x ->
      if not (Array.for_all Float.is_finite x) then
        Alcotest.fail "non-finite state in discrete orbit")
    tr.Ode.states

(* --- Lyapunov engine under faults ---------------------------------------- *)

let test_lyapunov_stalled_field_deadline () =
  let system = faulty_system (Faults.Stall 0.05) in
  let budget = Budget.with_timeout 2.0 in
  let t0 = Timing.now () in
  let report = Lyapunov.verify ~budget ~rng:(Rng.create 22) system in
  let elapsed = Timing.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned in %.2f s (deadline 2 s)" elapsed)
    true (elapsed < 3.0);
  Alcotest.(check bool) "budget stop recorded" true (report.Lyapunov.stats.Engine.budget_stop <> None);
  match report.Lyapunov.outcome with
  | Lyapunov.Proved _ -> Alcotest.fail "stalled field must not yield a certificate"
  | Lyapunov.Failed (Engine.Timeout _) -> ()
  | Lyapunov.Failed _ -> Alcotest.fail "expected a structured Timeout"

(* --- CMA-ES under a stalled objective ----------------------------------- *)

let test_cmaes_budget_stop () =
  let t = Cmaes.create ~sigma:0.5 ~rng:(Rng.create 31) (Vec.zeros 2) in
  let budget = Budget.with_timeout 0.5 in
  let objective = Faults.delay_oracle 0.05 (fun x -> Vec.dot x x) in
  let t0 = Timing.now () in
  let _, _, reason = Cmaes.optimize ~budget ~max_iter:10_000 t objective in
  let elapsed = Timing.now () -. t0 in
  Alcotest.(check bool) "stopped near the deadline" true (elapsed < 3.0);
  match reason with
  | Cmaes.Budget_exceeded Budget.Deadline -> ()
  | _ -> Alcotest.fail "expected a Budget_exceeded stop"

(* --- LP pivot limit ----------------------------------------------------- *)

let test_lp_pivot_limit () =
  (* Any nontrivial LP with max_pivots 0 must report Timeout, not loop. *)
  let p =
    {
      Lp.objective = [| 1.0; 1.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1.0; 2.0 |]; relation = Lp.Ge; rhs = 4.0 };
          { Lp.coeffs = [| 3.0; 1.0 |]; relation = Lp.Ge; rhs = 6.0 };
        ];
      bounds = [| (0.0, 10.0); (0.0, 10.0) |];
    }
  in
  (match Lp.minimize ~max_pivots:0 p with
  | Lp.Timeout Budget.Branch_budget -> ()
  | _ -> Alcotest.fail "pivot limit 0 must time out");
  (* An expired budget stops the simplex at the first pivot poll. *)
  match Lp.minimize ~budget:(Budget.make ~timeout:0.0 ()) p with
  | Lp.Timeout Budget.Deadline -> ()
  | _ -> Alcotest.fail "expired budget must time out the simplex"

let () =
  Alcotest.run "faults"
    [
      ( "ode",
        [
          Alcotest.test_case "simulate truncates NaN" `Quick test_simulate_truncates_nan;
          Alcotest.test_case "simulate_until truncates Inf" `Quick test_simulate_until_truncates_inf;
          Alcotest.test_case "rk45 truncates NaN stages" `Quick test_rk45_truncates_nan;
          Alcotest.test_case "rk45 truncates on step underflow" `Quick
            test_rk45_truncates_on_underflow;
          Alcotest.test_case "divergence stays finite" `Quick test_divergence_truncates;
        ] );
      ( "engine",
        [
          Alcotest.test_case "stalled field meets deadline" `Quick test_stalled_field_respects_deadline;
          Alcotest.test_case "NaN field fails structurally" `Quick test_nan_field_structured_failure;
          Alcotest.test_case "divergent field no hang" `Quick test_divergent_field_no_hang;
          Alcotest.test_case "ill-conditioned LP survives" `Quick test_ill_conditioned_lp_survives;
        ] );
      ( "discrete",
        [
          Alcotest.test_case "stalled map meets deadline" `Quick test_discrete_stalled_map_deadline;
          Alcotest.test_case "NaN map truncates orbit" `Quick test_discrete_nan_map_truncates;
        ] );
      ( "lyapunov",
        [
          Alcotest.test_case "stalled field meets deadline" `Quick
            test_lyapunov_stalled_field_deadline;
        ] );
      ( "cmaes",
        [ Alcotest.test_case "budget stop" `Quick test_cmaes_budget_stop ] );
      ( "lp",
        [ Alcotest.test_case "pivot limit" `Quick test_lp_pivot_limit ] );
    ]
