(* Tests for the simplex LP solver: textbook instances, degenerate and
   infeasible/unbounded cases, and a property test against brute-force
   vertex enumeration on random 2-variable problems. *)

let check_float = Alcotest.(check (float 1e-6))

let optimal = function
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Lp.Timeout _ -> Alcotest.fail "unexpected timeout"

(* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
   Classic Dantzig example: optimum (2, 6), value 36. *)
let test_textbook_max () =
  let p =
    {
      Lp.objective = [| 3.0; 5.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1.0; 0.0 |]; relation = Lp.Le; rhs = 4.0 };
          { Lp.coeffs = [| 0.0; 2.0 |]; relation = Lp.Le; rhs = 12.0 };
          { Lp.coeffs = [| 3.0; 2.0 |]; relation = Lp.Le; rhs = 18.0 };
        ];
      bounds = [| Lp.nonneg; Lp.nonneg |];
    }
  in
  let s = optimal (Lp.maximize p) in
  check_float "value" 36.0 s.Lp.objective_value;
  check_float "x" 2.0 s.Lp.x.(0);
  check_float "y" 6.0 s.Lp.x.(1)

(* min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0 -> (1.6, 1.2), 2.8. *)
let test_textbook_min_ge () =
  let p =
    {
      Lp.objective = [| 1.0; 1.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1.0; 2.0 |]; relation = Lp.Ge; rhs = 4.0 };
          { Lp.coeffs = [| 3.0; 1.0 |]; relation = Lp.Ge; rhs = 6.0 };
        ];
      bounds = [| Lp.nonneg; Lp.nonneg |];
    }
  in
  let s = optimal (Lp.minimize p) in
  check_float "value" 2.8 s.Lp.objective_value;
  Alcotest.(check bool) "feasible" true (Lp.check_feasible p s.Lp.x)

let test_equality_constraint () =
  (* min x - y s.t. x + y = 2, x,y in [0, 2] -> x=0, y=2, value -2. *)
  let p =
    {
      Lp.objective = [| 1.0; -1.0 |];
      constraints = [ { Lp.coeffs = [| 1.0; 1.0 |]; relation = Lp.Eq; rhs = 2.0 } ];
      bounds = [| (0.0, 2.0); (0.0, 2.0) |];
    }
  in
  let s = optimal (Lp.minimize p) in
  check_float "value" (-2.0) s.Lp.objective_value;
  check_float "sum" 2.0 (s.Lp.x.(0) +. s.Lp.x.(1))

let test_free_variables () =
  (* min x s.t. x >= -5 encoded through a constraint, x free. *)
  let p =
    {
      Lp.objective = [| 1.0 |];
      constraints = [ { Lp.coeffs = [| 1.0 |]; relation = Lp.Ge; rhs = -5.0 } ];
      bounds = [| Lp.free |];
    }
  in
  let s = optimal (Lp.minimize p) in
  check_float "free var reaches -5" (-5.0) s.Lp.x.(0)

let test_negative_rhs () =
  (* min -x s.t. -x >= -3 (i.e. x <= 3), x >= 0 -> x = 3. *)
  let p =
    {
      Lp.objective = [| -1.0 |];
      constraints = [ { Lp.coeffs = [| -1.0 |]; relation = Lp.Ge; rhs = -3.0 } ];
      bounds = [| Lp.nonneg |];
    }
  in
  let s = optimal (Lp.minimize p) in
  check_float "x" 3.0 s.Lp.x.(0)

let test_infeasible () =
  let p =
    {
      Lp.objective = [| 1.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1.0 |]; relation = Lp.Ge; rhs = 5.0 };
          { Lp.coeffs = [| 1.0 |]; relation = Lp.Le; rhs = 1.0 };
        ];
      bounds = [| Lp.nonneg |];
    }
  in
  (match Lp.minimize p with
  | Lp.Infeasible -> ()
  | Lp.Optimal _ | Lp.Unbounded | Lp.Timeout _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  let p =
    {
      Lp.objective = [| -1.0 |];
      constraints = [ { Lp.coeffs = [| 1.0 |]; relation = Lp.Ge; rhs = 0.0 } ];
      bounds = [| Lp.nonneg |];
    }
  in
  (match Lp.minimize p with
  | Lp.Unbounded -> ()
  | Lp.Optimal _ | Lp.Infeasible | Lp.Timeout _ -> Alcotest.fail "expected unbounded")

let test_no_constraints () =
  let p = { Lp.objective = [| 1.0; -2.0 |]; constraints = []; bounds = [| (0.0, 4.0); (0.0, 4.0) |] } in
  let s = optimal (Lp.minimize p) in
  check_float "x at lower" 0.0 s.Lp.x.(0);
  check_float "y at upper" 4.0 s.Lp.x.(1);
  let p2 = { p with bounds = [| Lp.free; (0.0, 4.0) |] } in
  (match Lp.minimize p2 with
  | Lp.Unbounded -> ()
  | Lp.Optimal _ | Lp.Infeasible | Lp.Timeout _ ->
    Alcotest.fail "expected unbounded without constraints")

let test_degenerate () =
  (* Multiple redundant constraints through the same vertex. *)
  let p =
    {
      Lp.objective = [| -1.0; -1.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1.0; 1.0 |]; relation = Lp.Le; rhs = 2.0 };
          { Lp.coeffs = [| 2.0; 2.0 |]; relation = Lp.Le; rhs = 4.0 };
          { Lp.coeffs = [| 1.0; 0.0 |]; relation = Lp.Le; rhs = 2.0 };
          { Lp.coeffs = [| 0.0; 1.0 |]; relation = Lp.Le; rhs = 2.0 };
        ];
      bounds = [| Lp.nonneg; Lp.nonneg |];
    }
  in
  let s = optimal (Lp.minimize p) in
  check_float "value" (-2.0) s.Lp.objective_value

let test_all_zero_rhs_degenerate () =
  (* The barrier-synthesis shape: homogeneous rows, maximize the margin. *)
  let p =
    {
      Lp.objective = [| 0.0; -1.0 |];
      (* max m s.t. x - m >= 0, -x + 2m <= 0 with x in [-1, 1], m in [-1, 1]:
         optimal m = 0.5 at x = 1. *)
      constraints =
        [
          { Lp.coeffs = [| 1.0; -1.0 |]; relation = Lp.Ge; rhs = 0.0 };
          { Lp.coeffs = [| -1.0; 2.0 |]; relation = Lp.Le; rhs = 0.0 };
        ];
      bounds = [| (-1.0, 1.0); (-1.0, 1.0) |];
    }
  in
  let s = optimal (Lp.minimize p) in
  check_float "margin" 0.5 s.Lp.x.(1)

let both_engines f =
  f Lp.Tableau;
  f Lp.Revised

(* Regression (phase-1 scale): {1e-8·x ≥ 5e-16, 1e-8·x ≤ 1e-16} is genuinely
   infeasible (x ≥ 5e-8 vs x ≤ 1e-8), but row equilibration rescales the
   rows to {x ≥ 5e-8, -x ≥ -1e-8} whose phase-1 residual (~4e-8) slipped
   under the old absolute 1e-7 cutoff — the solver reported Optimal for an
   empty feasible region.  The cutoff must scale with the problem. *)
let test_tiny_infeasible () =
  let p =
    {
      Lp.objective = [| 1.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1e-8 |]; relation = Lp.Ge; rhs = 5e-16 };
          { Lp.coeffs = [| 1e-8 |]; relation = Lp.Le; rhs = 1e-16 };
        ];
      bounds = [| (0.0, 1.0) |];
    }
  in
  both_engines (fun engine ->
      match Lp.minimize ~engine p with
      | Lp.Infeasible -> ()
      | Lp.Optimal s ->
        Alcotest.failf "tiny-magnitude infeasible system reported Optimal (x=%g)" s.Lp.x.(0)
      | Lp.Unbounded | Lp.Timeout _ -> Alcotest.fail "expected infeasible")

(* ...while a *feasible* tiny-magnitude system must not be rejected by the
   rescaled cutoff. *)
let test_tiny_feasible () =
  let p =
    {
      Lp.objective = [| 1.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1e-8 |]; relation = Lp.Ge; rhs = 1e-16 };
          { Lp.coeffs = [| 1e-8 |]; relation = Lp.Le; rhs = 5e-16 };
        ];
      bounds = [| (0.0, 1.0) |];
    }
  in
  both_engines (fun engine ->
      match Lp.minimize ~engine p with
      | Lp.Optimal s -> check_float "x at scaled lower bound" 1e-8 s.Lp.x.(0)
      | Lp.Infeasible | Lp.Unbounded | Lp.Timeout _ -> Alcotest.fail "expected optimal")

(* Regression: check_feasible used to raise Invalid_argument (from
   Array.for_all2) when the bounds arity disagreed with the point, instead
   of answering the question it was asked. *)
let test_check_feasible_arity () =
  let p =
    {
      Lp.objective = [| 1.0; 1.0 |];
      constraints = [ { Lp.coeffs = [| 1.0; 1.0 |]; relation = Lp.Le; rhs = 2.0 } ];
      bounds = [| Lp.nonneg |] (* wrong arity: 1 bound for 2 variables *);
    }
  in
  Alcotest.(check bool) "bounds arity mismatch is false (not an exception)" false
    (Lp.check_feasible p [| 0.5; 0.5 |]);
  let q = { p with bounds = [| Lp.nonneg; Lp.nonneg |] } in
  Alcotest.(check bool) "point arity mismatch is false" false (Lp.check_feasible q [| 0.5 |]);
  let r =
    { q with constraints = [ { Lp.coeffs = [| 1.0 |]; relation = Lp.Le; rhs = 2.0 } ] }
  in
  Alcotest.(check bool) "constraint arity mismatch is false" false
    (Lp.check_feasible r [| 0.5; 0.5 |]);
  Alcotest.(check bool) "well-formed point accepted" true (Lp.check_feasible q [| 0.5; 0.5 |])

(* Regression: with absolute tolerance, a large-scale row rejected points
   whose violation is pure floating-point noise relative to the row's
   magnitude. *)
let test_check_feasible_relative_tol () =
  let p =
    {
      Lp.objective = [| 1.0 |];
      constraints = [ { Lp.coeffs = [| 1e9 |]; relation = Lp.Le; rhs = 1e9 } ];
      bounds = [| (0.0, 2.0) |];
    }
  in
  (* Violation 0.5 is ~5e-10 of the row scale: rounding noise, feasible. *)
  Alcotest.(check bool) "large-scale rounding noise tolerated" true
    (Lp.check_feasible ~tol:1e-7 p [| 1.0 +. 5e-10 |]);
  (* Violation 1e4 is ~1e-5 of the row scale: a real violation. *)
  Alcotest.(check bool) "large-scale genuine violation rejected" false
    (Lp.check_feasible ~tol:1e-7 p [| 1.0 +. 1e-5 |]);
  (* Bounds likewise scale: 2e9 + 1 is within 1e-7-relative of 2e9. *)
  let q = { p with constraints = []; bounds = [| (0.0, 2e9) |] } in
  Alcotest.(check bool) "large bound noise tolerated" true
    (Lp.check_feasible ~tol:1e-7 q [| 2e9 +. 1.0 |])

(* Beale's classic cycling LP: Dantzig pricing with a naive tie-break cycles
   forever at the degenerate origin vertex.  Both engines must terminate
   (anti-cycling) at the optimum -1/20. *)
let test_beale_cycling () =
  let p =
    {
      Lp.objective = [| -0.75; 150.0; -0.02; 6.0 |];
      constraints =
        [
          { Lp.coeffs = [| 0.25; -60.0; -0.04; 9.0 |]; relation = Lp.Le; rhs = 0.0 };
          { Lp.coeffs = [| 0.5; -90.0; -0.02; 3.0 |]; relation = Lp.Le; rhs = 0.0 };
          { Lp.coeffs = [| 0.0; 0.0; 1.0; 0.0 |]; relation = Lp.Le; rhs = 1.0 };
        ];
      bounds = [| Lp.nonneg; Lp.nonneg; Lp.nonneg; Lp.nonneg |];
    }
  in
  both_engines (fun engine ->
      (* The pivot cap turns a cycle into a visible Timeout instead of a hang. *)
      match Lp.minimize ~engine ~max_pivots:10_000 p with
      | Lp.Optimal s ->
        check_float "Beale optimum" (-0.05) s.Lp.objective_value;
        Alcotest.(check bool) "feasible" true (Lp.check_feasible ~tol:1e-6 p s.Lp.x)
      | Lp.Timeout _ -> Alcotest.fail "simplex cycled (pivot budget exhausted)"
      | Lp.Infeasible | Lp.Unbounded -> Alcotest.fail "expected optimal")

(* --- incremental API ---------------------------------------------------- *)

let test_incremental_warm_agrees () =
  (* Start from the Dantzig example, then add cuts one at a time; each warm
     resolve must agree with a cold tableau solve of the accumulated
     problem. *)
  let p =
    {
      Lp.objective = [| -3.0; -5.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1.0; 0.0 |]; relation = Lp.Le; rhs = 4.0 };
          { Lp.coeffs = [| 0.0; 2.0 |]; relation = Lp.Le; rhs = 12.0 };
          { Lp.coeffs = [| 3.0; 2.0 |]; relation = Lp.Le; rhs = 18.0 };
        ];
      bounds = [| (0.0, 10.0); (0.0, 10.0) |];
    }
  in
  let inc = Lp.Incremental.create p in
  Alcotest.(check bool) "first solve is cold" false (Lp.Incremental.warm inc);
  let s0 = optimal (Lp.Incremental.resolve inc) in
  check_float "initial optimum" (-36.0) s0.Lp.objective_value;
  Alcotest.(check bool) "basis retained" true (Lp.Incremental.warm inc);
  let cuts =
    [
      ({ Lp.coeffs = [| 1.0; 1.0 |]; relation = Lp.Le; rhs = 7.0 }, -33.0);
      ({ Lp.coeffs = [| 0.0; 1.0 |]; relation = Lp.Le; rhs = 5.0 }, -31.0);
      ({ Lp.coeffs = [| 1.0; 1.0 |]; relation = Lp.Ge; rhs = 8.0 }, nan) (* infeasible *);
    ]
  in
  List.iteri
    (fun i (cut, expect) ->
      Lp.Incremental.add_constraint inc cut;
      let cold = Lp.minimize ~engine:Lp.Tableau (Lp.Incremental.problem inc) in
      match (Lp.Incremental.resolve inc, cold) with
      | Lp.Optimal w, Lp.Optimal c ->
        check_float (Printf.sprintf "cut %d warm value" i) expect w.Lp.objective_value;
        check_float (Printf.sprintf "cut %d cold value" i) c.Lp.objective_value
          w.Lp.objective_value
      | Lp.Infeasible, Lp.Infeasible ->
        Alcotest.(check bool) (Printf.sprintf "cut %d expected infeasible" i) true
          (Float.is_nan expect)
      | _ -> Alcotest.failf "cut %d: warm and cold disagree" i)
    cuts;
  Alcotest.(check int) "row count" 6 (Lp.Incremental.nrows inc)

let test_incremental_arity () =
  let p = { Lp.objective = [| 1.0 |]; constraints = []; bounds = [| (0.0, 1.0) |] } in
  let inc = Lp.Incremental.create p in
  Alcotest.check_raises "cut arity mismatch" (Invalid_argument "Lp: constraint arity mismatch")
    (fun () ->
      Lp.Incremental.add_constraint inc
        { Lp.coeffs = [| 1.0; 2.0 |]; relation = Lp.Le; rhs = 0.0 })

(* Brute-force reference for 2-variable LPs: evaluate all vertices formed by
   pairs of active constraints (including bounds). *)
let brute_force_2d objective rows bounds =
  let lines =
    rows
    @ [
        ([| 1.0; 0.0 |], fst bounds.(0));
        ([| 1.0; 0.0 |], snd bounds.(0));
        ([| 0.0; 1.0 |], fst bounds.(1));
        ([| 0.0; 1.0 |], snd bounds.(1));
      ]
  in
  let feasible (x, y) =
    x >= fst bounds.(0) -. 1e-7
    && x <= snd bounds.(0) +. 1e-7
    && y >= fst bounds.(1) -. 1e-7
    && y <= snd bounds.(1) +. 1e-7
    && List.for_all (fun (a, b) -> (a.(0) *. x) +. (a.(1) *. y) <= b +. 1e-7) rows
  in
  let best = ref None in
  List.iteri
    (fun i (a1, b1) ->
      List.iteri
        (fun j (a2, b2) ->
          if i < j then begin
            let det = (a1.(0) *. a2.(1)) -. (a1.(1) *. a2.(0)) in
            if Float.abs det > 1e-9 then begin
              let x = ((b1 *. a2.(1)) -. (b2 *. a1.(1))) /. det in
              let y = ((a1.(0) *. b2) -. (a2.(0) *. b1)) /. det in
              if feasible (x, y) then begin
                let v = (objective.(0) *. x) +. (objective.(1) *. y) in
                match !best with
                | Some bv when bv <= v -> ()
                | _ -> best := Some v
              end
            end
          end)
        lines)
    lines;
  !best

let prop_simplex_matches_brute_force =
  QCheck.Test.make ~name:"simplex matches brute-force vertex enumeration (2D)" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_rows = 1 + Rng.int rng 5 in
      let rows =
        List.init n_rows (fun _ ->
            ([| Rng.uniform rng (-2.0) 2.0; Rng.uniform rng (-2.0) 2.0 |], Rng.uniform rng 0.5 4.0))
      in
      let objective = [| Rng.uniform rng (-2.0) 2.0; Rng.uniform rng (-2.0) 2.0 |] in
      let bounds = [| (-3.0, 3.0); (-3.0, 3.0) |] in
      let p =
        {
          Lp.objective;
          constraints =
            List.map (fun (a, b) -> { Lp.coeffs = a; relation = Lp.Le; rhs = b }) rows;
          bounds;
        }
      in
      match (Lp.minimize p, brute_force_2d objective rows bounds) with
      | Lp.Optimal s, Some v ->
        Lp.check_feasible p s.Lp.x && Float.abs (s.Lp.objective_value -. v) < 1e-5
      | Lp.Infeasible, None -> true
      | Lp.Optimal _, None -> false
      | Lp.Infeasible, Some _ -> false
      | Lp.Unbounded, _ -> false
      | Lp.Timeout _, _ -> false (* impossible: box-bounded *))

let prop_solution_feasible =
  QCheck.Test.make ~name:"returned solutions are always feasible" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let n_rows = 1 + Rng.int rng 8 in
      let rows =
        List.init n_rows (fun _ ->
            {
              Lp.coeffs = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0);
              relation = (match Rng.int rng 3 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq);
              rhs = Rng.uniform rng (-2.0) 2.0;
            })
      in
      let p =
        {
          Lp.objective = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0);
          constraints = rows;
          bounds = Array.init n (fun _ -> (-5.0, 5.0));
        }
      in
      match Lp.minimize p with
      | Lp.Optimal s -> Lp.check_feasible ~tol:1e-5 p s.Lp.x
      | Lp.Infeasible -> true
      | Lp.Unbounded | Lp.Timeout _ -> false)

(* Random LP generator for the differential properties: mixed relations,
   mixed bound shapes (boxed, shifted, mirrored, split/free, one-sided),
   and occasional degenerate rows (duplicated rows, zero rhs). *)
let random_problem rng =
  let n = 2 + Rng.int rng 4 in
  let n_rows = 1 + Rng.int rng 8 in
  let random_row () =
    {
      Lp.coeffs = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0);
      relation = (match Rng.int rng 4 with 0 -> Lp.Ge | 1 -> Lp.Eq | _ -> Lp.Le);
      rhs = (if Rng.int rng 4 = 0 then 0.0 else Rng.uniform rng (-2.0) 2.0);
    }
  in
  let rows = ref [] in
  for _ = 1 to n_rows do
    let row = random_row () in
    rows := row :: !rows;
    (* Degenerate redundancy: same hyperplane twice. *)
    if Rng.int rng 5 = 0 then rows := { row with Lp.coeffs = Array.copy row.Lp.coeffs } :: !rows
  done;
  let bounds =
    Array.init n (fun _ ->
        match Rng.int rng 5 with
        | 0 -> Lp.free
        | 1 -> (0.0, infinity) (* split at zero *)
        | 2 -> (neg_infinity, Rng.uniform rng (-1.0) 3.0) (* mirrored *)
        | 3 -> (Rng.uniform rng (-4.0) (-1.0), Rng.uniform rng 1.0 4.0) (* shifted box *)
        | _ -> (-5.0, 5.0))
  in
  {
    Lp.objective = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0);
    constraints = !rows;
    bounds;
  }

let values_agree a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let prop_engines_agree =
  QCheck.Test.make ~name:"tableau and revised engines agree (status + objective)" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = random_problem rng in
      match (Lp.minimize ~engine:Lp.Tableau p, Lp.minimize ~engine:Lp.Revised p) with
      | Lp.Optimal a, Lp.Optimal b ->
        values_agree a.Lp.objective_value b.Lp.objective_value
        && Lp.check_feasible ~tol:1e-5 p b.Lp.x
      | Lp.Infeasible, Lp.Infeasible -> true
      | Lp.Unbounded, Lp.Unbounded -> true
      | Lp.Timeout _, _ | _, Lp.Timeout _ -> false
      | _ -> false)

let prop_warm_resolve_agrees_with_cold =
  QCheck.Test.make
    ~name:"warm-started resolve after add_constraint = cold solve of augmented problem"
    ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      (* Box-bounded (the synthesis shape): never unbounded, so status is
         binary and every resolve exercises the warm path. *)
      let base =
        {
          Lp.objective = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0);
          constraints =
            List.init
              (1 + Rng.int rng 4)
              (fun _ ->
                {
                  Lp.coeffs = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0);
                  relation = (if Rng.int rng 3 = 0 then Lp.Ge else Lp.Le);
                  rhs = Rng.uniform rng (-1.0) 3.0;
                });
          bounds = Array.init n (fun _ -> (-4.0, 4.0));
        }
      in
      let inc = Lp.Incremental.create base in
      let steps = 1 + Rng.int rng 4 in
      let ok = ref true in
      ignore (Lp.Incremental.resolve inc);
      for _ = 1 to steps do
        Lp.Incremental.add_constraint inc
          {
            Lp.coeffs = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0);
            relation = (if Rng.int rng 3 = 0 then Lp.Ge else Lp.Le);
            rhs = Rng.uniform rng (-1.0) 2.0;
          };
        let warm = Lp.Incremental.resolve inc in
        let cold = Lp.minimize ~engine:Lp.Tableau (Lp.Incremental.problem inc) in
        (match (warm, cold) with
        | Lp.Optimal a, Lp.Optimal b ->
          if
            not
              (values_agree a.Lp.objective_value b.Lp.objective_value
              && Lp.check_feasible ~tol:1e-5 (Lp.Incremental.problem inc) a.Lp.x)
          then ok := false
        | Lp.Infeasible, Lp.Infeasible -> ()
        | _ -> ok := false)
      done;
      !ok)

let () =
  Alcotest.run "lp"
    [
      ( "textbook",
        [
          Alcotest.test_case "dantzig max" `Quick test_textbook_max;
          Alcotest.test_case "min with >=" `Quick test_textbook_min_ge;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "free variables" `Quick test_free_variables;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "no constraints" `Quick test_no_constraints;
          Alcotest.test_case "degenerate redundancy" `Quick test_degenerate;
          Alcotest.test_case "homogeneous margin LP" `Quick test_all_zero_rhs_degenerate;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "tiny-magnitude infeasible" `Quick test_tiny_infeasible;
          Alcotest.test_case "tiny-magnitude feasible" `Quick test_tiny_feasible;
          Alcotest.test_case "check_feasible arity" `Quick test_check_feasible_arity;
          Alcotest.test_case "check_feasible relative tol" `Quick
            test_check_feasible_relative_tol;
          Alcotest.test_case "Beale cycling" `Quick test_beale_cycling;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "warm resolve agrees with cold" `Quick
            test_incremental_warm_agrees;
          Alcotest.test_case "cut arity rejected" `Quick test_incremental_arity;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_simplex_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_solution_feasible;
          QCheck_alcotest.to_alcotest prop_engines_agree;
          QCheck_alcotest.to_alcotest prop_warm_resolve_agrees_with_cold;
        ] );
    ]
