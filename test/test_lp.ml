(* Tests for the simplex LP solver: textbook instances, degenerate and
   infeasible cases, the box contract, and properties against brute-force
   vertex enumeration — an oracle sharing no pivoting, pricing or
   equilibration code with the engine it checks. *)

let check_float = Alcotest.(check (float 1e-6))

let optimal = function
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Numerical_failure -> Alcotest.fail "unexpected numerical failure"
  | Lp.Timeout _ -> Alcotest.fail "unexpected timeout"

(* The textbook LPs are stated over x ≥ 0; a (0, 100) box satisfies the
   engine's finite-bound contract without moving their optima. *)
let box = (0.0, 100.0)

(* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0, as
   min -3x - 5y.  Classic Dantzig example: optimum (2, 6), value 36. *)
let test_textbook_max () =
  let p =
    {
      Lp.objective = [| -3.0; -5.0 |];
      constraints =
        [
          { Lp.coeffs = [| 1.0; 0.0 |]; relation = Lp.Le; rhs = 4.0 };
          { Lp.coeffs = [| 0.0; 2.0 |]; relation = Lp.Le; rhs = 12.0 };
          { Lp.coeffs = [| 3.0; 2.0 |]; relation = Lp.Le; rhs = 18.0 };
        ];
      bounds = [| box; box |];
    }
  in
  let s = optimal (Lp.minimize p) in
  check_float "value" (-36.0) s.Lp.objective_value;
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
      bounds = [| box; box |];
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

let test_negative_rhs () =
  (* min -x s.t. -x >= -3 (i.e. x <= 3), x >= 0 -> x = 3. *)
  let p =
    {
      Lp.objective = [| -1.0 |];
      constraints = [ { Lp.coeffs = [| -1.0 |]; relation = Lp.Ge; rhs = -3.0 } ];
      bounds = [| box |];
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
      bounds = [| box |];
    }
  in
  (match Lp.minimize p with
  | Lp.Infeasible -> ()
  | Lp.Optimal _ | Lp.Numerical_failure | Lp.Timeout _ -> Alcotest.fail "expected infeasible")

let test_no_constraints () =
  let p = { Lp.objective = [| 1.0; -2.0 |]; constraints = []; bounds = [| (0.0, 4.0); (0.0, 4.0) |] } in
  let s = optimal (Lp.minimize p) in
  check_float "x at lower" 0.0 s.Lp.x.(0);
  check_float "y at upper" 4.0 s.Lp.x.(1)

(* The engine's contract is a finite box around every variable: a NaN or
   infinite side, or an empty box, is rejected up front — by the cold entry
   point and the incremental one alike — instead of being read as -∞ or as
   a silent zero. *)
let test_non_finite_bounds () =
  let p bound =
    {
      Lp.objective = [| 1.0 |];
      constraints = [ { Lp.coeffs = [| 1.0 |]; relation = Lp.Le; rhs = 0.5 } ];
      bounds = [| bound |];
    }
  in
  List.iter
    (fun bound ->
      let name = Printf.sprintf "(%g, %g)" (fst bound) (snd bound) in
      let err = Invalid_argument "Lp: non-finite variable bound" in
      Alcotest.check_raises (name ^ " minimize") err (fun () -> ignore (Lp.minimize (p bound)));
      Alcotest.check_raises (name ^ " incremental") err (fun () ->
          ignore (Lp.Incremental.create (p bound))))
    [ (nan, 1.0); (0.0, nan); (0.0, infinity); (neg_infinity, 0.0) ];
  Alcotest.check_raises "empty box" (Invalid_argument "Lp: empty variable bound") (fun () ->
      ignore (Lp.minimize (p (1.0, 0.0))))

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
      bounds = [| box; box |];
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

(* Regression (tolerance scale): {1e-8·x ≥ 5e-16, 1e-8·x ≤ 1e-16} is
   genuinely infeasible (x ≥ 5e-8 vs x ≤ 1e-8), but row equilibration
   rescales the rows to {x ≥ 5e-8, -x ≥ -1e-8}, whose violation (~4e-8) once
   slipped under an absolute 1e-7 cutoff — the solver reported Optimal for
   an empty feasible region. *)
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
  match Lp.minimize p with
  | Lp.Infeasible -> ()
  | Lp.Optimal s ->
    Alcotest.failf "tiny-magnitude infeasible system reported Optimal (x=%g)" s.Lp.x.(0)
  | Lp.Numerical_failure | Lp.Timeout _ -> Alcotest.fail "expected infeasible"

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
  check_float "x at scaled lower bound" 1e-8 (optimal (Lp.minimize p)).Lp.x.(0)

(* Regression: check_feasible used to raise Invalid_argument (from
   Array.for_all2) when the bounds arity disagreed with the point, instead
   of answering the question it was asked. *)
let test_check_feasible_arity () =
  let p =
    {
      Lp.objective = [| 1.0; 1.0 |];
      constraints = [ { Lp.coeffs = [| 1.0; 1.0 |]; relation = Lp.Le; rhs = 2.0 } ];
      bounds = [| box |] (* wrong arity: 1 bound for 2 variables *);
    }
  in
  Alcotest.(check bool) "bounds arity mismatch is false (not an exception)" false
    (Lp.check_feasible p [| 0.5; 0.5 |]);
  let q = { p with bounds = [| box; box |] } in
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
   forever at the degenerate origin vertex.  The engine must terminate
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
      bounds = [| box; box; box; box |];
    }
  in
  (* The pivot cap turns a cycle into a visible Timeout instead of a hang. *)
  match Lp.minimize ~max_pivots:10_000 p with
  | Lp.Optimal s ->
    check_float "Beale optimum" (-0.05) s.Lp.objective_value;
    Alcotest.(check bool) "feasible" true (Lp.check_feasible ~tol:1e-6 p s.Lp.x)
  | Lp.Timeout _ -> Alcotest.fail "simplex cycled (pivot budget exhausted)"
  | Lp.Infeasible | Lp.Numerical_failure -> Alcotest.fail "expected optimal"

(* --- incremental API ---------------------------------------------------- *)

let test_incremental_warm_agrees () =
  (* Start from the Dantzig example, then add cuts one at a time; each warm
     resolve must agree with a cold solve of the accumulated problem. *)
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
      let cold = Lp.minimize (Lp.Incremental.problem inc) in
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

(* Brute-force reference: a box-bounded polyhedron is a polytope, so it is
   empty or has a vertex, and the minimum of a linear objective is attained
   at one.  Every vertex solves n linearly independent active constraints
   (rows or box sides): solve every n-subset by Gaussian elimination with
   partial pivoting, keep the feasible solutions, return the least
   objective ([None] = infeasible).  Exponential in n — for small
   problems only. *)
let brute_force (p : Lp.problem) =
  let n = Array.length p.Lp.objective in
  let planes =
    Array.of_list
      (List.map (fun c -> (c.Lp.coeffs, c.Lp.rhs)) p.Lp.constraints
      @ List.concat
          (List.init n (fun j ->
               let e = Array.init n (fun i -> if i = j then 1.0 else 0.0) in
               [ (e, fst p.Lp.bounds.(j)); (e, snd p.Lp.bounds.(j)) ])))
  in
  let dot a x = Array.fold_left ( +. ) 0.0 (Array.mapi (fun j aj -> aj *. x.(j)) a) in
  let solve chosen =
    let m = Array.of_list (List.map (fun (a, b) -> Array.append a [| b |]) chosen) in
    try
      for k = 0 to n - 1 do
        let piv = ref k in
        for i = k + 1 to n - 1 do
          if Float.abs m.(i).(k) > Float.abs m.(!piv).(k) then piv := i
        done;
        if Float.abs m.(!piv).(k) < 1e-9 then raise Exit;
        let r = m.(!piv) in
        m.(!piv) <- m.(k);
        m.(k) <- r;
        for i = k + 1 to n - 1 do
          let f = m.(i).(k) /. r.(k) in
          for j = k to n do
            m.(i).(j) <- m.(i).(j) -. (f *. r.(j))
          done
        done
      done;
      let x = Array.make n 0.0 in
      for k = n - 1 downto 0 do
        let s = ref m.(k).(n) in
        for j = k + 1 to n - 1 do
          s := !s -. (m.(k).(j) *. x.(j))
        done;
        x.(k) <- !s /. m.(k).(k)
      done;
      Some x
    with Exit -> None
  in
  let tol v = 1e-7 *. (1.0 +. Float.abs v) in
  let feasible x =
    Array.for_all2 (fun xj (lo, hi) -> xj >= lo -. tol lo && xj <= hi +. tol hi) x p.Lp.bounds
    && List.for_all
         (fun c ->
           let d = dot c.Lp.coeffs x -. c.Lp.rhs and t = tol c.Lp.rhs in
           match c.Lp.relation with
           | Lp.Le -> d <= t
           | Lp.Ge -> d >= -.t
           | Lp.Eq -> Float.abs d <= t)
         p.Lp.constraints
  in
  let best = ref None in
  let rec choose start chosen k =
    if k = 0 then
      match solve chosen with
      | Some x when feasible x ->
        let v = dot p.Lp.objective x in
        if match !best with Some b -> v < b | None -> true then best := Some v
      | _ -> ()
    else
      for i = start to Array.length planes - k do
        choose (i + 1) (planes.(i) :: chosen) (k - 1)
      done
  in
  choose 0 [] n;
  !best

let matches_brute_force p =
  match (Lp.minimize p, brute_force p) with
  | Lp.Optimal s, Some v ->
    Lp.check_feasible ~tol:1e-5 p s.Lp.x
    && Float.abs (s.Lp.objective_value -. v) <= 1e-5 *. (1.0 +. Float.abs v)
  | Lp.Infeasible, None -> true
  | (Lp.Optimal _ | Lp.Infeasible | Lp.Numerical_failure | Lp.Timeout _), _ -> false

let prop_simplex_matches_brute_force =
  QCheck.Test.make ~name:"simplex matches brute-force vertex enumeration (2D)" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_rows = 1 + Rng.int rng 5 in
      matches_brute_force
        {
          Lp.objective = [| Rng.uniform rng (-2.0) 2.0; Rng.uniform rng (-2.0) 2.0 |];
          constraints =
            List.init n_rows (fun _ ->
                {
                  Lp.coeffs = [| Rng.uniform rng (-2.0) 2.0; Rng.uniform rng (-2.0) 2.0 |];
                  relation = Lp.Le;
                  rhs = Rng.uniform rng 0.5 4.0;
                });
          bounds = [| (-3.0, 3.0); (-3.0, 3.0) |];
        })

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
      | Lp.Numerical_failure | Lp.Timeout _ -> false)

(* Random LP generator for the n-dimensional oracle property: mixed
   relations, mixed box shapes (fixed, one side at zero, shifted, wide),
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
        | 0 ->
          let v = Rng.uniform rng (-1.0) 1.0 in
          (v, v)
        | 1 -> (0.0, Rng.uniform rng 1.0 3.0)
        | 2 -> (Rng.uniform rng (-3.0) (-1.0), 0.0)
        | 3 -> (Rng.uniform rng (-4.0) (-1.0), Rng.uniform rng 1.0 4.0)
        | _ -> (-5.0, 5.0))
  in
  {
    Lp.objective = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0);
    constraints = !rows;
    bounds;
  }

let prop_matches_vertex_oracle =
  QCheck.Test.make ~name:"simplex matches n-d vertex enumeration (status + objective)"
    ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed -> matches_brute_force (random_problem (Rng.create seed)))

let values_agree a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

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
        let cold = Lp.minimize (Lp.Incremental.problem inc) in
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
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "no constraints" `Quick test_no_constraints;
          Alcotest.test_case "non-finite bounds rejected" `Quick test_non_finite_bounds;
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
          QCheck_alcotest.to_alcotest prop_matches_vertex_oracle;
          QCheck_alcotest.to_alcotest prop_warm_resolve_agrees_with_cold;
        ] );
    ]
