(* Tests for the barrier core: templates, LP synthesis, level-set geometry,
   and the engine's SMT formula builders. *)

(* The paper's case study closed around [net]. *)
let dubins_system net =
  (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system

let check_float = Alcotest.(check (float 1e-9))

let vars2 = [| "d"; "th" |]

let quad = Template.make Template.Quadratic vars2

let quad_lin = Template.make Template.Quadratic_linear vars2

(* --- Template ----------------------------------------------------------- *)

let test_template_dimensions () =
  Alcotest.(check int) "quadratic 2 vars" 3 (Template.dimension quad);
  Alcotest.(check int) "quadratic+linear 2 vars" 5 (Template.dimension quad_lin);
  let three = Template.make Template.Quadratic [| "a"; "b"; "c" |] in
  Alcotest.(check int) "quadratic 3 vars" 6 (Template.dimension three)

let test_basis_order () =
  (* Documented order: d², d·th, th² then (for linear) d, th. *)
  let phis = Template.eval_basis quad_lin [| 2.0; 3.0 |] in
  Alcotest.(check int) "five entries" 5 (Array.length phis);
  check_float "d^2" 4.0 phis.(0);
  check_float "d*th" 6.0 phis.(1);
  check_float "th^2" 9.0 phis.(2);
  check_float "d" 2.0 phis.(3);
  check_float "th" 3.0 phis.(4)

let test_w_eval_vs_expr () =
  let coeffs = [| 0.7; 1.0; 1.0 |] in
  let w = Template.w_expr quad coeffs in
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    let d = Rng.uniform rng (-5.0) 5.0 and th = Rng.uniform rng (-2.0) 2.0 in
    let direct = Template.w_eval quad coeffs [| d; th |] in
    let via_expr = Expr.eval_env [ ("d", d); ("th", th) ] w in
    if Float.abs (direct -. via_expr) > 1e-9 then Alcotest.fail "w_eval vs expr mismatch"
  done

let test_p_matrix () =
  let p = Template.p_matrix quad [| 2.0; 1.0; 3.0 |] in
  check_float "p00" 2.0 p.(0).(0);
  check_float "p01" 0.5 p.(0).(1);
  check_float "p10" 0.5 p.(1).(0);
  check_float "p11" 3.0 p.(1).(1);
  (* x'Px must equal W for the pure quadratic. *)
  let x = [| 1.5; -0.8 |] in
  check_float "quadratic form" (Template.w_eval quad [| 2.0; 1.0; 3.0 |] x) (Mat.quadratic_form p x)

let test_basis_lie () =
  (* d/dt of (d², d·th, th²) along f = (fd, fth). *)
  let lie = Template.basis_lie quad [| 2.0; 3.0 |] [| 0.5; -1.0 |] in
  check_float "d(d^2)" (2.0 *. 2.0 *. 0.5) lie.(0);
  check_float "d(d*th)" ((0.5 *. 3.0) +. (2.0 *. -1.0)) lie.(1);
  check_float "d(th^2)" (2.0 *. 3.0 *. -1.0) lie.(2);
  let lie5 = Template.basis_lie quad_lin [| 2.0; 3.0 |] [| 0.5; -1.0 |] in
  check_float "d(d)" 0.5 lie5.(3);
  check_float "d(th)" (-1.0) lie5.(4)

let test_grad_exprs () =
  let coeffs = [| 1.0; 2.0; 3.0 |] in
  let grads = Template.grad_exprs quad coeffs in
  let env = [ ("d", 1.5); ("th", -0.5) ] in
  (* ∂W/∂d = 2·d + 2·th; ∂W/∂th = 2·d + 6·th for these coefficients. *)
  check_float "dW/dd" ((2.0 *. 1.5) +. (2.0 *. -0.5)) (Expr.eval_env env grads.(0));
  check_float "dW/dth" ((2.0 *. 1.5) +. (6.0 *. -0.5)) (Expr.eval_env env grads.(1))

(* --- Polynomial templates ---------------------------------------------- *)

let poly2 = Template.make (Template.Poly 2) vars2

let test_poly_dimensions () =
  (* Monomials of total degree 1..d in n variables: C(n+d, d) − 1. *)
  Alcotest.(check int) "poly 2 = quadratic_linear" (Template.dimension quad_lin)
    (Template.dimension poly2);
  Alcotest.(check int) "poly 3, 2 vars" 9
    (Template.dimension (Template.make (Template.Poly 3) vars2));
  Alcotest.(check int) "poly 4, 2 vars" 14
    (Template.dimension (Template.make (Template.Poly 4) vars2));
  Alcotest.(check int) "poly 2, 3 vars" 9
    (Template.dimension (Template.make (Template.Poly 2) [| "a"; "b"; "c" |]))

let test_kind_strings () =
  List.iter
    (fun k ->
      match Template.kind_of_string (Template.kind_to_string k) with
      | Ok k' when k' = k -> ()
      | Ok _ -> Alcotest.failf "round-trip changed %s" (Template.kind_to_string k)
      | Error e -> Alcotest.failf "round-trip of %s: %s" (Template.kind_to_string k) e)
    [ Template.Quadratic; Template.Quadratic_linear; Template.Poly 2; Template.Poly 7 ];
  (match Template.kind_of_string "poly:1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "poly:1 must be rejected (degree < 2)");
  match Template.kind_of_string "cubic" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must be rejected"

let random_state rng = [| Rng.uniform rng (-3.0) 3.0; Rng.uniform rng (-3.0) 3.0 |]

(* Poly 2 and Quadratic_linear enumerate the same monomials in the same
   order, and the generic slot-table evaluators seed their products and
   sums exactly as the legacy closed forms did — so the parity below is
   bit-exact float equality, not approximate. *)
let prop_poly2_basis_parity =
  QCheck.Test.make ~name:"Poly 2 basis/lie bit-exact vs Quadratic_linear" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let x = random_state rng in
      let f = random_state rng in
      Template.eval_basis poly2 x = Template.eval_basis quad_lin x
      && Template.basis_lie poly2 x f = Template.basis_lie quad_lin x f)

let prop_poly2_quadratic_prefix =
  QCheck.Test.make ~name:"Poly 2 degree-2 block bit-exact vs Quadratic" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let x = random_state rng in
      let f = random_state rng in
      let sub a = Array.sub a 0 (Template.dimension quad) in
      sub (Template.eval_basis poly2 x) = Template.eval_basis quad x
      && sub (Template.basis_lie poly2 x f) = Template.basis_lie quad x f)

let prop_poly2_w_expr_parity =
  QCheck.Test.make ~name:"Poly 2 w_expr agrees with Quadratic_linear" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let coeffs =
        Array.init (Template.dimension poly2) (fun _ -> Rng.uniform rng (-2.0) 2.0)
      in
      let x = random_state rng in
      let env = [ ("d", x.(0)); ("th", x.(1)) ] in
      Expr.eval_env env (Template.w_expr poly2 coeffs)
      = Expr.eval_env env (Template.w_expr quad_lin coeffs))

(* --- Synthesis ----------------------------------------------------------- *)

(* A linear stable system ẋ = -x, ẏ = -2y: W = x² + y² works. *)
let stable_field _t x = [| -.x.(0); -2.0 *. x.(1) |]

let stable_traces () =
  List.map
    (fun x0 -> Ode.simulate_until stable_field ~t0:0.0 ~x0 ~dt:0.1 ~t_end:6.0)
    [ [| 2.0; 1.0 |]; [| -1.5; 2.0 |]; [| 1.0; -2.0 |]; [| -2.0; -1.0 |]; [| 0.5; 2.2 |] ]

let test_synthesize_stable_system () =
  match
    Synthesis.Incremental.create ~template:quad ~field:stable_field (stable_traces ())
    |> Synthesis.Incremental.solve
  with
  | Synthesis.Candidate { coeffs; margin } ->
    Alcotest.(check bool) (Printf.sprintf "margin %.4f > 0" margin) true (margin > 0.0);
    (* The candidate must be positive definite for this system. *)
    let p = Template.p_matrix quad coeffs in
    Alcotest.(check bool) "P positive definite" true (Cholesky.is_positive_definite p)
  | Synthesis.Lp_infeasible -> Alcotest.fail "LP infeasible on a stable linear system"
  | Synthesis.Margin_too_small m -> Alcotest.failf "margin too small: %g" m
  | Synthesis.Lp_timed_out _ | Synthesis.Lp_unstable -> Alcotest.fail "unexpected LP failure"

let test_synthesize_lie_mode () =
  let options = { Synthesis.default_options with Synthesis.mode = Synthesis.Lie_derivative } in
  match
    Synthesis.Incremental.create ~options ~template:quad ~field:stable_field (stable_traces ())
    |> Synthesis.Incremental.solve
  with
  | Synthesis.Candidate { margin; _ } ->
    Alcotest.(check bool) "lie margin positive" true (margin > 0.0)
  | Synthesis.Lp_infeasible | Synthesis.Margin_too_small _ | Synthesis.Lp_timed_out _
  | Synthesis.Lp_unstable ->
    Alcotest.fail "Lie mode failed on stable linear system"

let test_synthesize_unstable_rejected () =
  (* ẋ = +x: no positive decreasing W exists along outward trajectories. *)
  let unstable _t x = [| x.(0); x.(1) |] in
  let traces =
    List.map
      (fun x0 -> Ode.simulate_until unstable ~t0:0.0 ~x0 ~dt:0.1 ~t_end:3.0)
      [ [| 0.5; 0.5 |]; [| -0.5; 0.3 |] ]
  in
  match
    Synthesis.Incremental.create ~template:quad ~field:unstable traces
    |> Synthesis.Incremental.solve
  with
  | Synthesis.Candidate { margin; _ } -> Alcotest.failf "found margin %g on unstable system" margin
  | Synthesis.Lp_infeasible | Synthesis.Margin_too_small _ -> ()
  | Synthesis.Lp_timed_out _ | Synthesis.Lp_unstable -> Alcotest.fail "unexpected LP failure"

let test_cex_cut_forces_change () =
  (* Adding a CEX cut at a state where the current candidate increases must
     change the LP answer.  Spiral system: ẋ = -y, ẏ = x - 0.1y (slow
     decay); W = x² + y² decreases, but W = x² alone would not. *)
  let spiral _t x = [| -.x.(1); x.(0) -. (0.1 *. x.(1)) |] in
  let traces =
    [ Ode.simulate_until spiral ~t0:0.0 ~x0:[| 2.0; 0.0 |] ~dt:0.05 ~t_end:20.0 ]
  in
  (match
     Synthesis.Incremental.create ~template:quad ~field:spiral traces
     |> Synthesis.Incremental.solve
   with
  | Synthesis.Candidate _ -> ()
  | Synthesis.Lp_infeasible | Synthesis.Margin_too_small _ | Synthesis.Lp_timed_out _
  | Synthesis.Lp_unstable ->
    Alcotest.fail "spiral should admit a quadratic generator");
  (* Now inject a fake CEX point: rows must still produce a candidate that
     decreases at that exact point. *)
  match
    Synthesis.Incremental.create ~cex_points:[ [| 0.0; 1.5 |] ] ~template:quad ~field:spiral
      traces
    |> Synthesis.Incremental.solve
  with
  | Synthesis.Candidate { coeffs; margin } ->
    let lie = Template.basis_lie quad [| 0.0; 1.5 |] (spiral 0.0 [| 0.0; 1.5 |]) in
    let dot = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i l -> coeffs.(i) *. l) lie) in
    Alcotest.(check bool)
      (Printf.sprintf "decrease at cex: %.4f <= -margin*rho" dot)
      true
      (dot <= -.margin *. 2.25 +. 1e-9)
  | Synthesis.Lp_infeasible | Synthesis.Margin_too_small _ | Synthesis.Lp_timed_out _
  | Synthesis.Lp_unstable ->
    Alcotest.fail "cex cut made the LP fail"

let test_exclude_rect () =
  let options =
    { Synthesis.default_options with Synthesis.exclude_rect = Some [| (-10.0, 10.0); (-10.0, 10.0) |] }
  in
  (* Everything excluded: zero rows. *)
  Alcotest.(check int) "all samples excluded" 0
    (Synthesis.count_rows ~options ~template:quad (stable_traces ()))

let test_count_rows_subsample () =
  let base = Synthesis.count_rows ~template:quad (stable_traces ()) in
  let sub =
    Synthesis.count_rows
      ~options:{ Synthesis.default_options with Synthesis.subsample = 4 }
      ~template:quad (stable_traces ())
  in
  Alcotest.(check bool) (Printf.sprintf "%d > %d" base sub) true (base > sub)

let mk_trace states =
  { Ode.times = Array.init (Array.length states) (fun i -> 0.1 *. float_of_int i); states }

let test_retained_indices_endpoint () =
  (* Regression: with a stride that does not divide the trace length the
     final state used to be dropped, leaving the LP unconstrained at the
     trace's deepest excursion. *)
  List.iter
    (fun subsample ->
      let options = { Synthesis.default_options with Synthesis.subsample } in
      List.iter
        (fun n ->
          let tr = mk_trace (Array.init n (fun i -> [| float_of_int i; 1.0 |])) in
          let idxs = Synthesis.retained_indices options tr in
          Alcotest.(check int) "starts at 0" 0 (List.hd idxs);
          Alcotest.(check int)
            (Printf.sprintf "last index retained (n=%d, subsample=%d)" n subsample)
            (n - 1)
            (List.nth idxs (List.length idxs - 1));
          let rec increasing = function
            | a :: (b :: _ as tl) -> a < b && increasing tl
            | _ -> true
          in
          Alcotest.(check bool) "strictly increasing" true (increasing idxs))
        [ 1; 2; 5; 10; 11; 15 ])
    [ 2; 3; 7 ]

let test_endpoint_generates_rows () =
  (* Same bug observed through the public row counter: every state but the
     last sits below min_rho, so only the always-retained endpoint can
     contribute a row. *)
  let states = Array.init 10 (fun i -> if i = 9 then [| 2.0; 1.0 |] else [| 1e-6; 0.0 |]) in
  let options = { Synthesis.default_options with Synthesis.subsample = 7 } in
  Alcotest.(check bool) "endpoint row present" true
    (Synthesis.count_rows ~options ~template:quad [ mk_trace states ] > 0)

let test_grid_range_off_origin () =
  let unbounded = [| (Float.neg_infinity, Float.infinity) |] in
  (* Off-origin X0 [2, 3]: the grid used to be [10, 15], excluding X0. *)
  let lo, hi = Synthesis.grid_range ~x0_rect:[| (2.0, 3.0) |] ~safe_rect:unbounded 0 in
  check_float "off-origin lo" 0.0 lo;
  check_float "off-origin hi" 5.0 hi;
  Alcotest.(check bool) "grid covers X0" true (lo <= 2.0 && hi >= 3.0);
  (* Negative X0 [-3, -2]: the bounds used to come back inverted. *)
  let lo, hi = Synthesis.grid_range ~x0_rect:[| (-3.0, -2.0) |] ~safe_rect:unbounded 0 in
  Alcotest.(check bool) "negative rect ordered" true (lo < hi);
  Alcotest.(check bool) "negative grid covers X0" true (lo <= -3.0 && hi >= -2.0);
  check_float "negative lo" (-5.0) lo;
  check_float "negative hi" 0.0 hi;
  (* Finite safe bounds pass through untouched. *)
  let lo, hi = Synthesis.grid_range ~x0_rect:[| (2.0, 3.0) |] ~safe_rect:[| (-1.5, 1.5) |] 0 in
  check_float "finite lo" (-1.5) lo;
  check_float "finite hi" 1.5 hi

(* The real synthesis LP: seed traces of the Nh=10 Dubins loop give the
   positivity/decrease and separation rows, and each round appends one
   exact Lie-derivative counterexample cut, as a CEGIS iteration does.
   After every cut the warm resolve must match a cold solve of the
   accumulated LP in status and objective, its optimum must pass the
   feasibility check, and no solve may fall back to a cold retry. *)
let test_warm_resolve_matches_cold () =
  let system = dubins_system (Error_dynamics.controller_of_width 10) in
  let config = Engine.default_config in
  let options =
    Synthesis.with_region config.Engine.synthesis ~x0_rect:config.Engine.x0_rect
      ~safe_rect:config.Engine.safe_rect
  in
  let template = Template.make Template.Quadratic system.Engine.vars in
  let rng = Rng.create 7 in
  let sample n =
    match Engine.sample_initial_states ~rng config n with
    | Ok states -> states
    | Error got -> Alcotest.failf "only %d/%d states sampled" got n
  in
  let traces =
    List.map
      (fun x0 ->
        Ode.simulate_until system.Engine.numeric_field ~t0:0.0 ~x0 ~dt:config.Engine.sim_dt
          ~t_end:(config.Engine.sim_dt *. float_of_int config.Engine.sim_steps))
      (sample config.Engine.n_seed)
  in
  let inc =
    Synthesis.Incremental.create ~options ~template ~field:system.Engine.numeric_field traces
  in
  let retries = Obs.Metrics.counter "lp.cold_retries" in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable (fun () ->
      ignore (Synthesis.Incremental.solve inc);
      List.iteri
        (fun k x_star ->
          Synthesis.Incremental.add_cex inc x_star;
          let problem = Synthesis.Incremental.problem inc in
          match (Synthesis.Incremental.solve inc, Lp.minimize problem) with
          | Synthesis.Candidate { coeffs; margin }, Lp.Optimal cold ->
            let a = -.margin and b = cold.Lp.objective_value in
            Alcotest.(check bool)
              (Printf.sprintf "round %d: warm %.9g vs cold %.9g" k a b)
              true
              (Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b)));
            Alcotest.(check bool) (Printf.sprintf "round %d: warm optimum feasible" k) true
              (Lp.check_feasible problem (Array.append coeffs [| margin |]))
          | Synthesis.Lp_infeasible, Lp.Infeasible -> ()
          | _ -> Alcotest.failf "round %d: warm and cold statuses differ" k)
        (sample 6));
  Alcotest.(check int) "no cold retries" 0 (Obs.Metrics.value retries);
  Obs.Metrics.reset ()

let test_exclude_rect_arity () =
  let tr = mk_trace [| [| 1.0; 1.0 |]; [| 1.1; 1.0 |] |] in
  let expect_raises label rect =
    let options = { Synthesis.default_options with Synthesis.exclude_rect = Some rect } in
    match Synthesis.count_rows ~options ~template:quad [ tr ] with
    | _ -> Alcotest.failf "%s exclude_rect must raise" label
    | exception Invalid_argument _ -> ()
  in
  expect_raises "shorter" [| (0.0, 1.0) |];
  expect_raises "longer" [| (0.0, 1.0); (0.0, 1.0); (0.0, 1.0) |]

(* --- Level set ------------------------------------------------------------ *)

let p_identityish = [| [| 1.0; 0.0 |]; [| 0.0; 4.0 |] |]

let test_rect_vertices () =
  let vs = Levelset.rect_vertices [| (-1.0, 1.0); (-2.0, 2.0) |] in
  Alcotest.(check int) "four corners" 4 (List.length vs);
  Alcotest.(check bool) "contains (1, -2)" true
    (List.exists (fun v -> v.(0) = 1.0 && v.(1) = -2.0) vs)

let test_complement_halfspaces () =
  let hs = Levelset.complement_halfspaces [| (-5.0, 5.0); (-1.5, 1.5) |] in
  Alcotest.(check int) "four half-spaces" 4 (List.length hs);
  (* Each pair (a, b) represents a·x >= b; e.g. x0 >= 5. *)
  Alcotest.(check bool) "x0 upper face" true
    (List.exists (fun (a, b) -> a.(0) = 1.0 && a.(1) = 0.0 && b = 5.0) hs);
  Alcotest.(check bool) "x0 lower face" true
    (List.exists (fun (a, b) -> a.(0) = -1.0 && b = 5.0) hs)

let test_analytic_range () =
  (* W = x² + 4y², X0 = [-1,1]², safe = [-5,5]×[-2,2].
     l_min = max over corners = 1 + 4 = 5.
     l_max = min(25 / (a P^-1 a)) over faces:
       x-faces: b=5, a=(±1,0): aP⁻¹a = 1 -> 25
       y-faces: b=2, a=(0,±1): aP⁻¹a = 1/4 -> 4/0.25 = 16. *)
  let r =
    Levelset.analytic_range ~p:p_identityish ~x0_rect:[| (-1.0, 1.0); (-1.0, 1.0) |]
      ~unsafe_complement_rect:[| (-5.0, 5.0); (-2.0, 2.0) |]
  in
  check_float "l_min" 5.0 r.Levelset.l_min;
  check_float "l_max" 16.0 r.Levelset.l_max

let test_analytic_range_not_definite () =
  let indefinite = [| [| 1.0; 0.0 |]; [| 0.0; -1.0 |] |] in
  Alcotest.check_raises "indefinite" Levelset.Not_definite (fun () ->
      ignore
        (Levelset.analytic_range ~p:indefinite ~x0_rect:[| (-1.0, 1.0); (-1.0, 1.0) |]
           ~unsafe_complement_rect:[| (-5.0, 5.0); (-2.0, 2.0) |]))

let test_bounding_box () =
  let bb = Levelset.ellipsoid_bounding_box ~p:p_identityish ~level:4.0 in
  (* |x| <= sqrt(4·1) = 2; |y| <= sqrt(4·(1/4)) = 1. *)
  check_float "x radius" 2.0 (snd bb.(0));
  check_float "y radius" 1.0 (snd bb.(1))

let test_boundary_points_on_level () =
  let pts = Levelset.boundary_points ~p:p_identityish ~level:3.0 ~n:64 in
  Alcotest.(check int) "count" 64 (Array.length pts);
  Array.iter
    (fun (x, y) ->
      let w = (x *. x) +. (4.0 *. y *. y) in
      if Float.abs (w -. 3.0) > 1e-6 then Alcotest.failf "boundary point off level: W=%g" w)
    pts

let test_range_centered_matches_plain () =
  (* With center 0 and w_of_point = quadratic form, both functions agree. *)
  let x0 = [| (-1.0, 1.0); (-1.0, 1.0) |] and safe = [| (-5.0, 5.0); (-2.0, 2.0) |] in
  let plain = Levelset.analytic_range ~p:p_identityish ~x0_rect:x0 ~unsafe_complement_rect:safe in
  let centered =
    Levelset.analytic_range_centered ~p:p_identityish ~center:[| 0.0; 0.0 |]
      ~w_of_point:(fun v -> Mat.quadratic_form p_identityish v)
      ~x0_rect:x0 ~unsafe_complement_rect:safe
  in
  check_float "l_min" plain.Levelset.l_min centered.Levelset.l_min;
  check_float "l_max" plain.Levelset.l_max centered.Levelset.l_max

(* --- Level_search ----------------------------------------------------------- *)

let level_spec =
  {
    Level_search.vars = vars2;
    x0_rect = [| (-1.0, 1.0); (-1.0, 1.0) |];
    safe_rect = [| (-5.0, 5.0); (-2.0, 2.0) |];
    unsafe_rect = [| (-5.0, 5.0); (-2.0, 2.0) |];
    smt = Solver.default_options;
    max_iters = 30;
  }

let test_level_search_identity_form () =
  (* W = x² + 4y² with the rects of test_analytic_range: valid levels are
     (5, 16); the search must land inside and verify with SMT. *)
  let coeffs = [| 1.0; 0.0; 4.0 |] in
  let stats = Cegis.fresh_stats () in
  match Level_search.search ~stats level_spec quad coeffs with
  | Ok level ->
    Alcotest.(check bool)
      (Printf.sprintf "level %.3f in (5, 16)" level)
      true
      (level > 5.0 && level < 16.0);
    Alcotest.(check bool) "iterations counted" true (stats.Engine.level_iterations >= 1)
  | Error _ -> Alcotest.fail "level search must succeed for the identity form"

let test_level_search_indefinite_fails () =
  let coeffs = [| 1.0; 0.0; -1.0 |] in
  match Level_search.search level_spec quad coeffs with
  | Error Engine.Level_range_empty -> ()
  | Ok _ -> Alcotest.fail "indefinite form cannot have an ellipsoidal level set"
  | Error _ -> Alcotest.fail "expected Level_range_empty"

let test_level_search_too_flat_fails () =
  (* W nearly flat in y: the sublevel set through the X0 corners pokes out
     of the safe rect in y — no valid level. *)
  let coeffs = [| 1.0; 0.0; 0.01 |] in
  match Level_search.search level_spec quad coeffs with
  | Error Engine.Level_range_empty -> ()
  | Ok level -> Alcotest.failf "found level %.4f for a too-flat form" level
  | Error _ -> ()

let test_level_search_certificate_checks () =
  (* The returned level really satisfies conditions (6) and (7) point-wise
     on a sample grid. *)
  let coeffs = [| 1.0; 0.5; 2.0 |] in
  match Level_search.search level_spec quad coeffs with
  | Error _ -> Alcotest.fail "search should succeed"
  | Ok level ->
    let w = Template.w_eval quad coeffs in
    (* (6): all X0 points inside the level set. *)
    Array.iter
      (fun x ->
        Array.iter
          (fun y -> if w [| x; y |] > level +. 1e-9 then Alcotest.fail "X0 point outside")
          (Floatx.linspace (-1.0) 1.0 11))
      (Floatx.linspace (-1.0) 1.0 11);
    (* (7): points outside the safe rect are outside the level set. *)
    List.iter
      (fun p -> if w p <= level then Alcotest.fail "unsafe point inside level set")
      [ [| 5.01; 0.0 |]; [| -5.01; 0.0 |]; [| 0.0; 2.01 |]; [| 0.0; -2.01 |] ]

let test_level_search_compiles_once () =
  (* The bisection varies only the level constant, so both conditions are
     prepared once up front (with the level as a pinned extra variable):
     the tape-compile count of a whole search is a small constant fixed by
     the formula shapes — condition (6) is one atom, condition (7) is
     W ≤ level conjoined with a 4-disjunct rectangle complement — and
     independent of how many bisection iterations run. *)
  let coeffs = [| 1.0; 0.5; 2.0 |] in
  let before = Tape.compile_count () in
  let stats = Cegis.fresh_stats () in
  let result = Level_search.search ~stats level_spec quad coeffs in
  let compiles = Tape.compile_count () - before in
  (match result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "search should succeed");
  Alcotest.(check bool) "at least one bisection" true (stats.Engine.level_iterations >= 1);
  Alcotest.(check bool) "tapes were compiled" true (compiles >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "%d compiles for %d iterations stays under the shape bound" compiles
       stats.Engine.level_iterations)
    true (compiles <= 16);
  (* A second search over the same shapes compiles the same number of
     tapes, however its iteration count differs. *)
  let before2 = Tape.compile_count () in
  ignore (Level_search.search level_spec quad [| 1.0; 0.0; 4.0 |]);
  Alcotest.(check int) "compiles depend on shape only" compiles (Tape.compile_count () - before2)

(* --- Engine formulas ------------------------------------------------------- *)

let reference_system = dubins_system Error_dynamics.reference_controller

let test_condition_formulas_semantics () =
  let config = Engine.default_config in
  let template = Template.make Template.Quadratic reference_system.Engine.vars in
  let cert = { Engine.template; coeffs = [| 0.688; 1.0; 1.0 |]; level = 1.0 } in
  (* Condition 6 at a point inside X0 with W > level: satisfied (bad). *)
  let f6 = Engine.condition6_formula cert in
  let w_at p = Template.w_eval template cert.Engine.coeffs p in
  let probe = [| 0.9; 0.15 |] in
  Alcotest.(check bool) "cond6 point semantics"
    (w_at probe > 1.0)
    (Formula.eval
       [ (Error_dynamics.var_derr, probe.(0)); (Error_dynamics.var_theta_err, probe.(1)) ]
       f6);
  (* Condition 5 formula excludes X0. *)
  let f5 = Engine.condition5_formula reference_system config cert in
  Alcotest.(check bool) "cond5 false inside X0" false
    (Formula.eval
       [ (Error_dynamics.var_derr, 0.0); (Error_dynamics.var_theta_err, 0.0) ]
       f5)

let test_barrier_expr () =
  let template = Template.make Template.Quadratic vars2 in
  let cert = { Engine.template; coeffs = [| 1.0; 0.0; 1.0 |]; level = 2.0 } in
  let b = Engine.barrier_expr cert in
  check_float "B(1,1) = 0" 0.0 (Expr.eval_env [ ("d", 1.0); ("th", 1.0) ] b);
  check_float "B(0,0) = -2" (-2.0) (Expr.eval_env [ ("d", 0.0); ("th", 0.0) ] b)

let test_sample_initial_states () =
  let config = Engine.default_config in
  let rng = Rng.create 6 in
  let samples =
    match Engine.sample_initial_states ~rng config 50 with
    | Ok samples -> samples
    | Error got -> Alcotest.failf "seed shortfall: %d of 50" got
  in
  Alcotest.(check int) "fifty samples" 50 (List.length samples);
  List.iter
    (fun x ->
      let inside_safe =
        x.(0) >= -5.0 && x.(0) <= 5.0 && Float.abs x.(1) <= (Float.pi /. 2.0) -. 0.05
      in
      let inside_x0 = Float.abs x.(0) <= 1.0 && Float.abs x.(1) <= Float.pi /. 16.0 in
      if not inside_safe then Alcotest.fail "sample outside safe rect";
      if inside_x0 then Alcotest.fail "sample inside X0")
    samples

let test_seed_shortfall () =
  (* X0 covering the whole safe rectangle leaves nothing to sample from:
     the shortfall must be explicit, not a silently shorter list. *)
  let config =
    { Engine.default_config with Engine.x0_rect = Engine.default_config.Engine.safe_rect }
  in
  (match Engine.sample_initial_states ~rng:(Rng.create 1) config 10 with
  | Ok _ -> Alcotest.fail "expected a shortfall with X0 = safe_rect"
  | Error got -> Alcotest.(check int) "no sample found" 0 got);
  let report = Engine.verify ~config ~rng:(Rng.create 1) reference_system in
  match report.Engine.outcome with
  | Engine.Failed (Engine.Seed_shortfall (0, n)) ->
    Alcotest.(check int) "wanted n_seed" config.Engine.n_seed n
  | _ -> Alcotest.fail "verify must surface the seed shortfall"

let test_seed_field_evals () =
  (* The seed traces' cost as a deterministic count.  A cold Nh=10 Dubins
     run (one candidate, so its only traces are the 20 seeds) takes 2,174
     field evaluations now that a trace ends on entering X0; run on to
     convergence it took 8,540, and fixed-step RK4 on the same sample grid
     32,000. *)
  let system = dubins_system (Error_dynamics.controller_of_width 10) in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let report =
    Fun.protect ~finally:Obs.Metrics.disable (fun () ->
        Engine.verify ~rng:(Rng.create 1) system)
  in
  let evals = Obs.Metrics.value (Obs.Metrics.counter "ode.field_evals") in
  Obs.Metrics.reset ();
  Alcotest.(check int) "one candidate" 1 report.Engine.stats.Engine.candidate_iterations;
  Alcotest.(check int) "seed traces only" 20 (List.length report.Engine.traces);
  Alcotest.(check bool) (Printf.sprintf "%d field evaluations <= 3000" evals) true
    (evals > 0 && evals <= 3000)

(* The solver's search policy, pinned on the real query: the condition (5)
   check of the widened Nh=100 Dubins loop at jobs 1.  A fixpoint that
   keeps sweeping every atom while any domain moves took ~4.9 HC4 revise
   calls per box here; stopping once a round shrinks no domain by 10 %
   takes ~2.9. *)
let test_condition5_revise_per_box () =
  let system = dubins_system (Error_dynamics.controller_of_width 100) in
  let config = Engine.default_config in
  let cert =
    match (Engine.verify ~rng:(Rng.create 1000) system).Engine.outcome with
    | Engine.Proved cert -> cert
    | Engine.Failed _ -> Alcotest.fail "widened Nh=100 must prove"
  in
  let verdict, st =
    Solver.solve
      ~options:{ config.Engine.smt with Solver.jobs = 1 }
      ~bounds:(Cegis.rect_bounds system.Engine.vars config.Engine.safe_rect)
      (Engine.condition5_formula system config cert)
  in
  Alcotest.(check bool) "condition (5) unsat" true (verdict = Solver.Unsat);
  Alcotest.(check bool)
    (Printf.sprintf "%d revise calls <= 3.5 x %d boxes" st.Solver.hc4_calls st.Solver.branches)
    true
    (float_of_int st.Solver.hc4_calls <= 3.5 *. float_of_int st.Solver.branches)

(* The Table 1 workload must scale: the condition (5) atom of the
   distinct-neuron controller compiles to more tape nodes as Nh grows,
   where the widened controller's copies collapse under hash-consing. *)
let test_distinct_controller_tape_grows () =
  let cert =
    {
      Engine.template = Template.make Template.Quadratic [| "derr"; "theta_err" |];
      coeffs = [| 0.6; 1.0; 1.0 |];
      level = 0.0;
    }
  in
  let nodes net =
    let system = dubins_system net in
    let index_of v = if v = system.Engine.vars.(0) then 0 else 1 in
    Formula.to_dnf (Engine.condition5_formula system Engine.default_config cert)
    |> List.concat
    |> List.fold_left
         (fun acc a -> max acc (Tape.atom_node_count (Tape.compile ~index_of a)))
         0
  in
  let distinct nh = nodes (Error_dynamics.distinct_controller_of_width nh) in
  let n10 = distinct 10 and n100 = distinct 100 and n1000 = distinct 1000 in
  let widened = nodes (Error_dynamics.controller_of_width 1000) in
  Alcotest.(check bool)
    (Printf.sprintf "nodes grow: %d < %d < %d" n10 n100 n1000)
    true
    (n10 < n100 && n100 < n1000);
  Alcotest.(check bool)
    (Printf.sprintf "Nh=1000: distinct %d >= 5 x widened %d" n1000 widened)
    true (n1000 >= 5 * widened)

let test_verify_expired_budget () =
  (* An already-expired deadline: verify must return a structured Timeout
     with the stop recorded in the stats, not hang or raise. *)
  let budget = Budget.make ~timeout:0.0 () in
  let report = Engine.verify ~budget ~rng:(Rng.create 3) reference_system in
  (match report.Engine.outcome with
  | Engine.Failed (Engine.Timeout _) -> ()
  | Engine.Proved _ -> Alcotest.fail "cannot prove under an expired budget"
  | Engine.Failed _ -> Alcotest.fail "expected a Timeout failure");
  match report.Engine.stats.Engine.budget_stop with
  | Some Budget.Deadline -> ()
  | _ -> Alcotest.fail "stats.budget_stop must record the deadline"

let test_verify_branch_pool_exhaustion () =
  (* A tiny shared branch pool: the SMT stages drain it and the solver
     returns Unknown; with the pool drained mid-pipeline the engine reports
     a structured failure (inconclusive or timeout), never a proof. *)
  let budget = Budget.make ~branches:50 () in
  let report = Engine.verify ~budget ~rng:(Rng.create 3) reference_system in
  match report.Engine.outcome with
  | Engine.Proved _ -> Alcotest.fail "50 branches cannot complete the SMT checks"
  | Engine.Failed _ -> ()

let test_verify_resilient_ladder () =
  (* With an impossible safe set the ladder runs all its rungs and reports
     every attempt; best is a Failed report with the attempts logged. *)
  let config = { Engine.default_config with Engine.max_candidate_iters = 1; n_seed = 3 } in
  let res =
    Engine.verify_resilient ~config ~restarts:2 ~rng:(Rng.create 9)
      (dubins_system Error_dynamics.reference_controller)
  in
  Alcotest.(check bool) "at least one attempt" true (List.length res.Engine.attempts >= 1);
  Alcotest.(check bool) "at most 3 attempts" true (List.length res.Engine.attempts <= 3);
  (match (List.hd res.Engine.attempts).Engine.label with
  | "initial" -> ()
  | l -> Alcotest.failf "first attempt labelled %s" l);
  match res.Engine.best.Engine.outcome with
  | Engine.Proved _ -> ()
  | Engine.Failed _ ->
    (* Every attempt is in the log regardless of outcome. *)
    List.iter
      (fun a ->
        match a.Engine.report.Engine.outcome with
        | Engine.Proved _ -> Alcotest.fail "a proved attempt must be selected as best"
        | Engine.Failed _ -> ())
      res.Engine.attempts

(* --- Benchmark systems ------------------------------------------------ *)

(* Elaborate a registry scenario at [jobs] and verify it at rng seed 7. *)
let verify_scenario ?jobs (entry : Registry.entry) =
  let scenario = { entry.Registry.scenario with Scenario.jobs } in
  match Registry.elaborate scenario with
  | Error reason -> Alcotest.failf "%s: %s" entry.Registry.name reason
  | Ok e ->
    let report =
      Engine.verify ~config:e.Scenario.config ~rng:(Rng.create 7) e.Scenario.closed.Plant.system
    in
    (e, report)

(* Every registry scenario meets its expectation under the suite's rule: a
   should-fail scenario must fail structurally, never by a timeout. *)
let test_benchmark_expectations () =
  List.iter
    (fun entry ->
      let _, report = verify_scenario ~jobs:1 entry in
      if
        not
          (Scenario.expectation_met entry.Registry.scenario.Scenario.expectation
             report.Engine.outcome)
      then
        Alcotest.failf "%s: %s" entry.Registry.name
          (match report.Engine.outcome with
          | Engine.Proved _ -> "engine proved a should-fail scenario"
          | Engine.Failed reason -> Cegis.string_of_failure reason))
    (Registry.scenarios ())

let test_benchmark_certificates_valid () =
  (* Dense numeric re-check of each proved certificate's decrease
     condition. *)
  List.iter
    (fun name ->
      let e, report = verify_scenario (Option.get (Registry.find_scenario name)) in
      match report.Engine.outcome with
      | Engine.Failed _ -> ()
      | Engine.Proved cert ->
        let config = e.Scenario.config in
        let system = e.Scenario.closed.Plant.system in
        let grads = Template.grad_exprs cert.Engine.template cert.Engine.coeffs in
        let inside_x0 x =
          Array.for_all Fun.id
            (Array.mapi (fun i (lo, hi) -> x.(i) >= lo && x.(i) <= hi) config.Engine.x0_rect)
        in
        let (d_lo, d_hi) = config.Engine.safe_rect.(0)
        and (t_lo, t_hi) = config.Engine.safe_rect.(1) in
        Array.iter
          (fun a ->
            Array.iter
              (fun bb ->
                let p = [| a; bb |] in
                if not (inside_x0 p) then begin
                  let env =
                    Array.to_list (Array.mapi (fun i v -> (v, p.(i))) system.Engine.vars)
                  in
                  let f = system.Engine.numeric_field 0.0 p in
                  let lie =
                    (Expr.eval_env env grads.(0) *. f.(0))
                    +. (Expr.eval_env env grads.(1) *. f.(1))
                  in
                  if lie >= -.config.Engine.gamma then
                    Alcotest.failf "%s: decrease violated at (%g, %g): %g" name a bb lie
                end)
              (Floatx.linspace t_lo t_hi 21))
          (Floatx.linspace d_lo d_hi 21))
    [
      "damped-pendulum";
      "undamped-pendulum";
      "linear-stable";
      "linear-saddle";
      "van-der-pol-reversed";
    ]

let test_cex_repeated_alternating () =
  (* Regression: the CEGIS loop's stall detector used to compare a new
     counterexample only against the most recent one, so an alternating
     A, B, A, B sequence was never flagged as repeated.  The check must
     look at EVERY accumulated counterexample within tolerance. *)
  let a = [| 0.5; -0.25 |] and b = [| -1.0; 0.75 |] in
  let a' = [| 0.5 +. 1e-10; -0.25 |] in
  Alcotest.(check bool) "A repeats in [B; A]" true (Cegis.cex_repeated [ b; a ] a);
  Alcotest.(check bool) "A not repeated in [B]" false (Cegis.cex_repeated [ b ] a);
  Alcotest.(check bool) "empty history never repeats" false (Cegis.cex_repeated [] a);
  (* Within the default tolerance a jittered revisit still counts. *)
  Alcotest.(check bool) "near-duplicate within tol" true (Cegis.cex_repeated [ b; a ] a');
  Alcotest.(check bool) "near-duplicate outside tight tol" false
    (Cegis.cex_repeated ~tol:1e-12 [ b; a ] a')

let test_cegis_alternating_witnesses_stop () =
  (* An obligation whose witnesses alternate A, B, A, B (its cuts change
     nothing) must stop on the third iteration as an ineffective cut, not
     burn all [max_iters] and report Cex_budget_exhausted — which is what a
     guard comparing only with the latest witness does. *)
  let a = [| 1.0; 0.5 |] and b = [| -0.5; 1.0 |] in
  (* Satisfiable only in a tiny box around [p], so the δ-sat witness is
     (deterministically) that box's point. *)
  let pin p =
    Formula.and_
      (List.concat
         (List.mapi
            (fun i v ->
              [
                Formula.ge (Expr.var v) (Expr.const (p.(i) -. 1e-7));
                Formula.le (Expr.var v) (Expr.const (p.(i) +. 1e-7));
              ])
            (Array.to_list vars2)))
  in
  let calls = ref 0 in
  let alternating =
    {
      Cegis.name = "alternating";
      formula =
        (fun _ ->
          incr calls;
          pin (if !calls mod 2 = 1 then a else b));
      violates = (fun _ _ -> true);
      cuts = (fun _ -> []);
    }
  in
  let stats = Cegis.fresh_stats () in
  let cegis =
    Cegis.create ~stats ~budget:Budget.unlimited ~synthesis:Synthesis.default_options
      ~smt:Solver.default_options ~max_iters:20 ~template:quad ~field:stable_field
      ~domain:[| (-3.0, 3.0); (-3.0, 3.0) |] (stable_traces ())
  in
  (match Cegis.run cegis [ alternating ] with
  | Error (Engine.Solver_inconclusive msg) ->
    Alcotest.(check string) "ineffective cut" "alternating: counterexample cut ineffective" msg
  | Error Engine.Cex_budget_exhausted -> Alcotest.fail "alternating witnesses burned the budget"
  | Error _ -> Alcotest.fail "unexpected failure"
  | Ok _ -> Alcotest.fail "the obligation never discharges");
  Alcotest.(check int) "stopped on the third iteration" 3 stats.Cegis.candidate_iterations;
  Alcotest.(check int) "two distinct witnesses cut" 2 (List.length (Cegis.witnesses cegis));
  Alcotest.(check int) "one warm LP solve per iteration" 3 stats.Cegis.lp_calls

(* Full-pipeline parity: Poly 2 enumerates exactly the Quadratic_linear
   basis, so on the same seed the LP sees the same rows and the whole
   CEGIS run must land on the same verdict — and on a proof, the same
   certificate to the bit. *)
let test_poly2_verify_parity () =
  let system = dubins_system Error_dynamics.reference_controller in
  let verify_with kind =
    let config = { Engine.default_config with Engine.template_kind = kind } in
    Engine.verify ~config ~rng:(Rng.create 7) system
  in
  let a = verify_with Template.Quadratic_linear in
  let b = verify_with (Template.Poly 2) in
  match (a.Engine.outcome, b.Engine.outcome) with
  | Engine.Proved ca, Engine.Proved cb ->
    Alcotest.(check bool) "identical coefficients" true (ca.Engine.coeffs = cb.Engine.coeffs);
    Alcotest.(check bool) "identical level" true (ca.Engine.level = cb.Engine.level)
  | Engine.Failed _, Engine.Failed _ -> ()
  | Engine.Proved _, Engine.Failed r ->
    Alcotest.failf "Poly 2 failed where Quadratic_linear proved: %s"
      (match r with Engine.Lp_failed s -> s | _ -> "(non-LP reason)")
  | Engine.Failed _, Engine.Proved _ ->
    Alcotest.fail "Poly 2 proved where Quadratic_linear failed"

let () =
  Alcotest.run "barrier"
    [
      ( "template",
        [
          Alcotest.test_case "dimensions" `Quick test_template_dimensions;
          Alcotest.test_case "basis order" `Quick test_basis_order;
          Alcotest.test_case "w_eval vs expr" `Quick test_w_eval_vs_expr;
          Alcotest.test_case "p_matrix" `Quick test_p_matrix;
          Alcotest.test_case "basis lie derivative" `Quick test_basis_lie;
          Alcotest.test_case "gradient expressions" `Quick test_grad_exprs;
        ] );
      ( "poly template",
        [
          Alcotest.test_case "dimensions" `Quick test_poly_dimensions;
          Alcotest.test_case "kind strings" `Quick test_kind_strings;
          QCheck_alcotest.to_alcotest prop_poly2_basis_parity;
          QCheck_alcotest.to_alcotest prop_poly2_quadratic_prefix;
          QCheck_alcotest.to_alcotest prop_poly2_w_expr_parity;
          Alcotest.test_case "verify parity on dubins" `Quick test_poly2_verify_parity;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "stable linear system" `Quick test_synthesize_stable_system;
          Alcotest.test_case "lie-derivative mode" `Quick test_synthesize_lie_mode;
          Alcotest.test_case "unstable system rejected" `Quick test_synthesize_unstable_rejected;
          Alcotest.test_case "cex cut forces decrease" `Quick test_cex_cut_forces_change;
          Alcotest.test_case "exclude rect" `Quick test_exclude_rect;
          Alcotest.test_case "exclude rect arity" `Quick test_exclude_rect_arity;
          Alcotest.test_case "subsampling reduces rows" `Quick test_count_rows_subsample;
          Alcotest.test_case "retained indices keep endpoint" `Quick
            test_retained_indices_endpoint;
          Alcotest.test_case "endpoint generates rows" `Quick test_endpoint_generates_rows;
          Alcotest.test_case "grid range off-origin" `Quick test_grid_range_off_origin;
          Alcotest.test_case "warm resolves match cold on Dubins" `Quick
            test_warm_resolve_matches_cold;
        ] );
      ( "levelset",
        [
          Alcotest.test_case "rect vertices" `Quick test_rect_vertices;
          Alcotest.test_case "complement half-spaces" `Quick test_complement_halfspaces;
          Alcotest.test_case "analytic range" `Quick test_analytic_range;
          Alcotest.test_case "indefinite rejected" `Quick test_analytic_range_not_definite;
          Alcotest.test_case "bounding box" `Quick test_bounding_box;
          Alcotest.test_case "boundary points on level" `Quick test_boundary_points_on_level;
          Alcotest.test_case "centered range consistency" `Quick test_range_centered_matches_plain;
        ] );
      ( "level_search",
        [
          Alcotest.test_case "identity form" `Quick test_level_search_identity_form;
          Alcotest.test_case "indefinite fails" `Quick test_level_search_indefinite_fails;
          Alcotest.test_case "too-flat fails" `Quick test_level_search_too_flat_fails;
          Alcotest.test_case "certificate point checks" `Quick test_level_search_certificate_checks;
          Alcotest.test_case "compiles once across bisections" `Quick
            test_level_search_compiles_once;
        ] );
      ( "benchmark systems",
        [
          Alcotest.test_case "expectations hold" `Slow test_benchmark_expectations;
          Alcotest.test_case "certificates numerically valid" `Slow test_benchmark_certificates_valid;
        ] );
      ( "engine",
        [
          Alcotest.test_case "condition formulas" `Quick test_condition_formulas_semantics;
          Alcotest.test_case "repeated cex detects alternation" `Quick
            test_cex_repeated_alternating;
          Alcotest.test_case "cegis stops alternating witnesses" `Quick
            test_cegis_alternating_witnesses_stop;
          Alcotest.test_case "barrier expression" `Quick test_barrier_expr;
          Alcotest.test_case "seed sampling respects D" `Quick test_sample_initial_states;
          Alcotest.test_case "seed shortfall explicit" `Quick test_seed_shortfall;
          Alcotest.test_case "seed simulation field evaluations" `Quick test_seed_field_evals;
          Alcotest.test_case "condition (5) revise calls per box" `Quick
            test_condition5_revise_per_box;
          Alcotest.test_case "distinct-neuron tape grows with Nh" `Quick
            test_distinct_controller_tape_grows;
          Alcotest.test_case "expired budget times out" `Quick test_verify_expired_budget;
          Alcotest.test_case "branch pool exhaustion" `Quick test_verify_branch_pool_exhaustion;
          Alcotest.test_case "resilient ladder" `Slow test_verify_resilient_ladder;
        ] );
    ]
