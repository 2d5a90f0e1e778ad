(* Tests for the δ-SAT solver stack: formulas/DNF, HC4 contraction
   soundness, and end-to-end satisfiability verdicts. *)

let x = Expr.var "x"

let y = Expr.var "y"

let solve ?options bounds f = fst (Solver.solve ?options ~bounds f)

let expect_unsat name v =
  match v with
  | Solver.Unsat -> ()
  | Solver.Delta_sat w ->
    Alcotest.failf "%s: expected unsat, got witness %s" name
      (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%g" n v) w))
  | Solver.Unknown -> Alcotest.failf "%s: expected unsat, got unknown" name

let expect_sat name v =
  match v with
  | Solver.Delta_sat w -> w
  | Solver.Unsat -> Alcotest.failf "%s: expected sat, got unsat" name
  | Solver.Unknown -> Alcotest.failf "%s: expected sat, got unknown" name

(* A walk that meets a leaf it cannot close answers Unknown, with no
   budget stop recorded. *)
let expect_open name (v, st) =
  match (v, st.Solver.interrupted) with
  | Solver.Unknown, None -> ()
  | Solver.Unknown, Some s ->
    Alcotest.failf "%s: stopped (%s), not open" name (Budget.string_of_stop s)
  | v, _ -> Alcotest.failf "%s: expected an open walk, got %a" name Solver.pp_verdict v

(* --- Formula ----------------------------------------------------------- *)

let test_formula_eval () =
  let f = Formula.and_ [ Formula.le x (Expr.const 1.0); Formula.gt y (Expr.const 0.0) ] in
  Alcotest.(check bool) "sat point" true (Formula.eval [ ("x", 0.5); ("y", 0.5) ] f);
  Alcotest.(check bool) "unsat point" false (Formula.eval [ ("x", 2.0); ("y", 0.5) ] f);
  let nf = Formula.not_ f in
  Alcotest.(check bool) "negation flips" true (Formula.eval [ ("x", 2.0); ("y", 0.5) ] nf)

let test_formula_simplification () =
  Alcotest.(check bool) "and [] = true" true (Formula.and_ [] = Formula.True);
  Alcotest.(check bool) "or [] = false" true (Formula.or_ [] = Formula.False);
  Alcotest.(check bool) "and false" true (Formula.and_ [ Formula.False; Formula.True ] = Formula.False);
  Alcotest.(check bool) "or true" true (Formula.or_ [ Formula.False; Formula.True ] = Formula.True);
  Alcotest.(check bool) "not not" true (Formula.not_ (Formula.not_ Formula.True) = Formula.True)

let test_dnf () =
  (* (a or b) and c -> [a;c], [b;c] *)
  let a = Formula.le x (Expr.const 0.0)
  and b = Formula.le y (Expr.const 0.0)
  and c = Formula.le (Expr.( + ) x y) (Expr.const 1.0) in
  let dnf = Formula.to_dnf (Formula.and_ [ Formula.or_ [ a; b ]; c ]) in
  Alcotest.(check int) "two disjuncts" 2 (List.length dnf);
  List.iter (fun conj -> Alcotest.(check int) "two atoms each" 2 (List.length conj)) dnf;
  Alcotest.(check int) "true" 1 (List.length (Formula.to_dnf Formula.True));
  Alcotest.(check int) "false" 0 (List.length (Formula.to_dnf Formula.False))

let test_dnf_negation () =
  (* not (x <= 0 and y <= 0) = x > 0 or y > 0: two disjuncts. *)
  let f =
    Formula.not_ (Formula.and_ [ Formula.le x (Expr.const 0.0); Formula.le y (Expr.const 0.0) ])
  in
  Alcotest.(check int) "two disjuncts" 2 (List.length (Formula.to_dnf f))

let test_free_vars () =
  let f = Formula.and_ [ Formula.le x y; Formula.le y (Expr.const 1.0) ] in
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Formula.free_vars f)

let test_holds_delta () =
  let f = Formula.le x (Expr.const 0.0) in
  Alcotest.(check bool) "slack accepted" true (Formula.holds_delta 0.01 [ ("x", 0.005) ] f);
  Alcotest.(check bool) "beyond slack" false (Formula.holds_delta 0.01 [ ("x", 0.02) ] f)

(* --- HC4 --------------------------------------------------------------- *)

let compile_atom bounds_vars atom =
  let index_of v =
    let rec find i = function
      | [] -> raise Not_found
      | n :: _ when String.equal n v -> i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 bounds_vars
  in
  Hc4.compile ~index_of atom

let atom_of f =
  match f with Formula.Atom a -> a | _ -> Alcotest.fail "expected atom"

let test_hc4_linear_contraction () =
  (* x + y <= 0 with x in [2, 10]: y must be <= -2. *)
  let c = compile_atom [ "x"; "y" ] (atom_of (Formula.le (Expr.( + ) x y) (Expr.const 0.0))) in
  let domains = [| Interval.make 2.0 10.0; Interval.make (-100.0) 100.0 |] in
  let changed = Hc4.revise domains c in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check bool) "y upper contracted" true (Interval.hi domains.(1) <= -2.0 +. 1e-9);
  Alcotest.(check bool) "x untouched lower" true (Interval.lo domains.(0) = 2.0)

let test_hc4_empty () =
  (* x^2 <= -1 is infeasible. *)
  let c =
    compile_atom [ "x" ]
      (atom_of (Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.const 1.0)) (Expr.const 0.0)))
  in
  let domains = [| Interval.make (-5.0) 5.0 |] in
  Alcotest.check_raises "empty" Hc4.Empty_box (fun () -> ignore (Hc4.revise domains c))

let test_hc4_tanh_inversion () =
  (* tanh(x) = 0.5 -> x = atanh(0.5) ~ 0.5493. *)
  let c = compile_atom [ "x" ] (atom_of (Formula.eq (Expr.tanh x) (Expr.const 0.5))) in
  let domains = [| Interval.make (-10.0) 10.0 |] in
  let rec fix n = if n > 0 && (try Hc4.revise domains c with Hc4.Empty_box -> false) then fix (n - 1) in
  fix 20;
  Alcotest.(check bool) "x contracted near atanh(0.5)" true
    (Interval.lo domains.(0) > 0.54 && Interval.hi domains.(0) < 0.56)

let test_hc4_certainly_true () =
  let c = compile_atom [ "x" ] (atom_of (Formula.le (Expr.pow x 2) (Expr.const 100.0))) in
  let domains = [| Interval.make (-2.0) 2.0 |] in
  Alcotest.(check bool) "whole box satisfies" true (Hc4.certainly_true domains c);
  let c2 = compile_atom [ "x" ] (atom_of (Formula.le (Expr.pow x 2) (Expr.const 1.0))) in
  Alcotest.(check bool) "not certain" false (Hc4.certainly_true domains c2)

let test_hc4_change_reporting () =
  (* revise's change report is a dirty flag set at the domain write sites;
     it must be true exactly when a domain narrowed.  A second pass from
     the fixpoint must report no change (the pre-flag implementation
     rescanned a copied array — keep its semantics). *)
  let c = compile_atom [ "x"; "y" ] (atom_of (Formula.le (Expr.( + ) x y) (Expr.const 0.0))) in
  let domains = [| Interval.make 2.0 10.0; Interval.make (-100.0) 100.0 |] in
  Alcotest.(check bool) "first pass narrows" true (Hc4.revise domains c);
  Alcotest.(check bool) "fixpoint reports no change" false (Hc4.revise domains c);
  (* A constraint already slack on the whole box never reports a change. *)
  let slack = compile_atom [ "x"; "y" ] (atom_of (Formula.le x (Expr.const 50.0))) in
  Alcotest.(check bool) "slack constraint no change" false (Hc4.revise domains slack)

let prop_hc4_sound =
  (* HC4 never removes points that satisfy the constraint. *)
  QCheck.Test.make ~name:"HC4 contraction keeps all solutions" ~count:300
    QCheck.(pair (int_range 0 100_000) (pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0)))
    (fun (seed, (px, py)) ->
      let rng = Rng.create seed in
      let rec gen depth =
        if depth = 0 then begin
          match Rng.int rng 3 with
          | 0 -> Expr.var "x"
          | 1 -> Expr.var "y"
          | _ -> Expr.const (Rng.uniform rng (-2.0) 2.0)
        end
        else begin
          match Rng.int rng 8 with
          | 0 -> Expr.( + ) (gen (depth - 1)) (gen (depth - 1))
          | 1 -> Expr.( - ) (gen (depth - 1)) (gen (depth - 1))
          | 2 -> Expr.( * ) (gen (depth - 1)) (gen (depth - 1))
          | 3 -> Expr.sin (gen (depth - 1))
          | 4 -> Expr.tanh (gen (depth - 1))
          | 5 -> Expr.pow (gen (depth - 1)) 2
          | 6 -> Expr.abs (gen (depth - 1))
          | _ -> Expr.neg (gen (depth - 1))
        end
      in
      let e = gen 3 in
      let value = Expr.eval_env [ ("x", px); ("y", py) ] e in
      if not (Float.is_finite value) then true
      else begin
        (* Build a constraint satisfied at (px, py): e <= value (+1). *)
        let atom = atom_of (Formula.le e (Expr.const (value +. 1.0))) in
        let c = compile_atom [ "x"; "y" ] atom in
        let domains = [| Interval.make (-3.0) 3.0; Interval.make (-3.0) 3.0 |] in
        match Hc4.revise domains c with
        | _ -> Interval.mem px domains.(0) && Interval.mem py domains.(1)
        | exception Hc4.Empty_box -> false
      end)

(* Revise every atom of [conj] over [bounds] to a fixpoint (at most 20
   rounds); the solution [point] must survive in the domains. *)
let check_hc4_keeps name bounds point conj =
  let vars = List.map (fun (v, _, _) -> v) bounds in
  let cs = List.map (fun f -> compile_atom vars (atom_of f)) conj in
  let domains = Array.of_list (List.map (fun (_, lo, hi) -> Interval.make lo hi) bounds) in
  let rec fix n =
    if n > 0 && List.fold_left (fun changed c -> Hc4.revise domains c || changed) false cs then
      fix (n - 1)
  in
  (match fix 20 with
  | () -> ()
  | exception Hc4.Empty_box -> Alcotest.failf "%s: a box with a solution emptied" name);
  Alcotest.(check bool) (name ^ ": solution kept") true
    (Array.for_all2 (fun d v -> Interval.lo d <= v && v <= Interval.hi d) domains point)

let test_hc4_zero_products () =
  (* When the requirement and the other factor both hold 0, every value of
     a factor qualifies (x·0 = 0 for any x).  A backward projection that
     divides the requirement by the other factor answers {0} or empty
     there, and cut the solution off each of these boxes. *)
  let zero = Expr.const 0.0 and xy = Expr.( * ) x y in
  let pinned = [ ("x", 0.0, 0.0); ("y", 1.0, 2.0) ] in
  check_hc4_keeps "x*y = 0" [ ("x", 0.5, 1.0); ("y", -1.0, 1.0) ] [| 0.75; 0.0 |]
    [ Formula.eq xy zero ];
  check_hc4_keeps "x*y <= 0" pinned [| 0.0; 1.5 |] [ Formula.le xy zero ];
  check_hc4_keeps "(y+1)*x + y <= 1.5" pinned [| 0.0; 1.5 |]
    [ Formula.le (Expr.( + ) (Expr.( * ) (Expr.( + ) y (Expr.const 1.0)) x) y) (Expr.const 1.5) ];
  check_hc4_keeps "x/y <= 0" pinned [| 0.0; 1.5 |] [ Formula.le (Expr.( / ) x y) zero ];
  check_hc4_keeps "x <= 0 and x >= 0 and x*y = 0" [ ("x", -1.0, 1.0); ("y", 1.0, 2.0) ]
    [| 0.0; 1.5 |]
    [ Formula.le x zero; Formula.ge x zero; Formula.eq xy zero ]

let test_hc4_cube_root_bound () =
  (* The float 1e30 is above 10³⁰, so x³ <= 1e30 holds at x = 1e10 and
     x³ = 1e30 has its real root just above 1e10, below [Float.succ 1e10].
     1e30 ** (1/3) rounds 7 ulps below 1e10: a projection that widens the
     rounded root by a fixed ulp count cuts both off. *)
  let cube = Expr.pow x 3 and big = Expr.const 1e30 in
  let bounds = [ ("x", 1e10, 2e10) ] in
  check_hc4_keeps "x^3 - 1e30 <= 0" bounds [| 1e10 |]
    [ Formula.le (Expr.( - ) cube big) (Expr.const 0.0) ];
  check_hc4_keeps "x^3 = 1e30 (lower end)" bounds [| 1e10 |] [ Formula.eq cube big ];
  check_hc4_keeps "x^3 = 1e30 (upper end)" bounds [| Float.succ 1e10 |] [ Formula.eq cube big ]

(* --- Solver ------------------------------------------------------------ *)

let bounds2 = [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ]

let test_solver_circle_unsat () =
  let f =
    Formula.and_
      [
        Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
        Formula.ge (Expr.( + ) x y) (Expr.const 1.6);
      ]
  in
  expect_unsat "circle" (solve bounds2 f)

let test_solver_circle_sat () =
  let f =
    Formula.and_
      [
        Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
        Formula.ge (Expr.( + ) x y) (Expr.const 1.3);
      ]
  in
  let w = expect_sat "circle sat" (solve bounds2 f) in
  (* The witness satisfies the δ-weakened formula. *)
  Alcotest.(check bool) "witness delta-holds" true (Formula.holds_delta 1e-2 w f)

let test_solver_trig_root () =
  let f = Formula.eq (Expr.sin x) (Expr.const 0.5) in
  let w = expect_sat "sin root" (solve [ ("x", 0.0, 1.5707) ] f) in
  let xv = List.assoc "x" w in
  Alcotest.(check bool) "near asin(0.5)" true (Float.abs (xv -. Float.asin 0.5) < 1e-2)

let test_solver_tanh_bound () =
  expect_unsat "tanh > 1.01"
    (solve [ ("x", -100.0, 100.0) ] (Formula.gt (Expr.tanh x) (Expr.const 1.01)))

let test_solver_disjunction () =
  (* (x <= -1.5 or x >= 1.5) and x^2 <= 1: unsat. *)
  let f =
    Formula.and_
      [
        Formula.or_ [ Formula.le x (Expr.const (-1.5)); Formula.ge x (Expr.const 1.5) ];
        Formula.le (Expr.pow x 2) (Expr.const 1.0);
      ]
  in
  expect_unsat "disjunct" (solve [ ("x", -2.0, 2.0) ] f);
  (* Loosen the circle: sat through the second disjunct. *)
  let f2 =
    Formula.and_
      [
        Formula.or_ [ Formula.le x (Expr.const (-1.5)); Formula.ge x (Expr.const 1.5) ];
        Formula.le (Expr.pow x 2) (Expr.const 4.0);
      ]
  in
  ignore (expect_sat "disjunct sat" (solve [ ("x", -2.0, 2.0) ] f2))

let test_solver_rect_helpers () =
  let outside = Formula.outside_rect [ ("x", -1.0, 1.0); ("y", -1.0, 1.0) ] in
  (* Outside the unit square but inside [-0.5, 0.5]^2: unsat. *)
  expect_unsat "outside small box"
    (solve [ ("x", -0.5, 0.5); ("y", -0.5, 0.5) ] outside);
  let w = expect_sat "outside reachable" (solve bounds2 outside) in
  let xv = List.assoc "x" w and yv = List.assoc "y" w in
  Alcotest.(check bool) "witness outside" true
    (Float.abs xv > 1.0 -. 1e-2 || Float.abs yv > 1.0 -. 1e-2);
  let inside = Formula.in_rect [ ("x", -1.0, 1.0) ] in
  ignore (expect_sat "inside" (solve [ ("x", -2.0, 2.0) ] inside))

let test_solver_zero_products () =
  (* When the requirement and the other factor both hold 0, every value of
     a factor qualifies (x·0 = 0 for any x).  A backward projection that
     divides the requirement by the other factor answers {0} or empty
     there, and refuted each of these satisfiable queries. *)
  let check name bounds f =
    let w = expect_sat name (solve bounds f) in
    Alcotest.(check bool) (name ^ ": witness delta-holds") true
      (Formula.holds_delta Solver.default_options.Solver.delta w f)
  in
  let zero = Expr.const 0.0 and xy = Expr.( * ) x y in
  let pinned = [ ("x", 0.0, 0.0); ("y", 1.0, 2.0) ] in
  check "x*y = 0" [ ("x", 0.5, 1.0); ("y", -1.0, 1.0) ] (Formula.eq xy zero);
  check "x*y <= 0" pinned (Formula.le xy zero);
  check "(y+1)*x + y <= 1.5" pinned
    (Formula.le (Expr.( + ) (Expr.( * ) (Expr.( + ) y (Expr.const 1.0)) x) y) (Expr.const 1.5));
  check "x/y <= 0" pinned (Formula.le (Expr.( / ) x y) zero);
  check "x <= 0 and x >= 0 and x*y = 0" [ ("x", -1.0, 1.0); ("y", 1.0, 2.0) ]
    (Formula.and_ [ Formula.le x zero; Formula.ge x zero; Formula.eq xy zero ])

let test_solver_cube_root_bound () =
  (* Both queries hold at or just above x = 1e10 in the reals (10³⁰ is
     below the float 1e30), yet 1e30 ** (1/3) rounds 7 ulps below 1e10: a
     projection that widens the rounded root by a fixed ulp count cuts
     the solutions off and answers unsat. *)
  let cube = Expr.pow x 3 and big = Expr.const 1e30 in
  let bounds = [ ("x", 1e10, 2e10) ] in
  ignore
    (expect_sat "x^3 - 1e30 <= 0"
       (solve bounds (Formula.le (Expr.( - ) cube big) (Expr.const 0.0))));
  ignore (expect_sat "x^3 = 1e30" (solve bounds (Formula.eq cube big)))

let test_solver_unknown_budget () =
  (* A hard equality with a tiny branch budget must return Unknown, not a
     wrong verdict. *)
  let opts = { Solver.default_options with Solver.max_branches = 3; delta = 1e-12 } in
  let f = Formula.eq (Expr.( + ) (Expr.sin x) (Expr.( * ) x (Expr.cos y))) (Expr.const 0.37) in
  match solve ~options:opts bounds2 f with
  | Solver.Unknown -> ()
  | Solver.Unsat -> Alcotest.fail "tiny budget should not conclude unsat"
  | Solver.Delta_sat _ -> () (* may legitimately find a witness quickly *)

(* A formula hard enough that the solver cannot finish instantly: used to
   exercise deadline and cancellation stops. *)
let hard_formula =
  Formula.eq (Expr.( + ) (Expr.sin x) (Expr.( * ) x (Expr.cos y))) (Expr.const 0.37)

let test_solver_deadline_stop () =
  (* An already-expired deadline must stop the very first box and be
     reported in the stats; the verdict degrades to Unknown, never to a
     wrong Unsat. *)
  let opts = { Solver.default_options with Solver.delta = 1e-12 } in
  let budget = Budget.make ~timeout:0.0 () in
  let verdict, st = Solver.solve ~options:opts ~budget ~bounds:bounds2 hard_formula in
  (match verdict with
  | Solver.Unknown -> ()
  | Solver.Unsat -> Alcotest.fail "expired deadline must not conclude unsat"
  | Solver.Delta_sat _ -> Alcotest.fail "expired deadline must not search for a witness");
  (match st.Solver.interrupted with
  | Some Budget.Deadline -> ()
  | Some s -> Alcotest.failf "wrong stop: %s" (Budget.string_of_stop s)
  | None -> Alcotest.fail "stats must record the deadline stop");
  Alcotest.(check bool) "stopped promptly" true (st.Solver.branches <= 1)

let test_solver_cancellation () =
  (* Cancel after a handful of boxes via the hook; the solver must stop and
     tag the stats. *)
  let boxes = ref 0 in
  let budget = Budget.make ~cancel:(fun () -> incr boxes; !boxes > 5) () in
  let opts = { Solver.default_options with Solver.delta = 1e-12 } in
  let verdict, st = Solver.solve ~options:opts ~budget ~bounds:bounds2 hard_formula in
  (match verdict with
  | Solver.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown after cancellation");
  match st.Solver.interrupted with
  | Some Budget.Cancelled -> ()
  | _ -> Alcotest.fail "stats must record the cancellation"

let test_solver_branch_pool () =
  (* A shared branch pool across two queries: the second query starts with
     a drained pool and must stop immediately. *)
  let budget = Budget.make ~branches:10 () in
  let opts = { Solver.default_options with Solver.delta = 1e-12 } in
  let _ = Solver.solve ~options:opts ~budget ~bounds:bounds2 hard_formula in
  let verdict, st = Solver.solve ~options:opts ~budget ~bounds:bounds2 hard_formula in
  (match verdict with
  | Solver.Unknown -> ()
  | _ -> Alcotest.fail "drained pool must yield Unknown");
  match st.Solver.interrupted with
  | Some Budget.Branch_budget -> ()
  | _ -> Alcotest.fail "stats must record the branch-pool stop"

let test_prove_universal () =
  (* A universal ∀x ∈ box: f is proved by refuting its negation.
     ∀x ∈ [-1,1]: x² <= 1.01 — proved (note the margin: a property that
     holds with *zero* margin, like x² <= 1 on exactly [-1,1], is refutable
     in the δ-weakened sense — dReal's contract). *)
  let refute bounds f = solve bounds (Formula.not_ f) in
  expect_unsat "x^2 <= 1.01 on [-1,1]"
    (refute [ ("x", -1.0, 1.0) ] (Formula.le (Expr.pow x 2) (Expr.const 1.01)));
  (* ∀x ∈ [-2,2]: x² <= 1 — refuted with a witness beyond |x| = 1. *)
  let w =
    expect_sat "x^2 <= 1 on [-2,2]"
      (refute [ ("x", -2.0, 2.0) ] (Formula.le (Expr.pow x 2) (Expr.const 1.0)))
  in
  Alcotest.(check bool) "witness violates" true (Float.abs (List.assoc "x" w) > 1.0 -. 1e-2);
  (* A transcendental universal: ∀x ∈ [-3,3]: tanh(x)² < 1. *)
  expect_unsat "tanh² < 1"
    (refute [ ("x", -3.0, 3.0) ] (Formula.lt (Expr.pow (Expr.tanh x) 2) (Expr.const 1.0)))

let test_solver_unbound_var_rejected () =
  Alcotest.check_raises "missing bounds"
    (Invalid_argument "Solver.solve: variable y has no bounds") (fun () ->
      ignore (Solver.solve ~bounds:[ ("x", 0.0, 1.0) ] (Formula.le y (Expr.const 0.0))))

let test_solver_duplicate_bounds_rejected () =
  Alcotest.check_raises "duplicate bounds"
    (Invalid_argument "Solver.solve: duplicate bounds for variable x") (fun () ->
      ignore
        (Solver.solve
           ~bounds:[ ("x", 0.0, 1.0); ("y", 0.0, 1.0); ("x", -1.0, 0.0) ]
           (Formula.le x y)))

let test_solver_parallel_agreement () =
  (* Verdicts must be independent of the job count: jobs=4 statically
     splits the initial box into subboxes, and the Unsat/Delta_sat merge
     must reproduce the sequential answer on every formula family. *)
  let solve_jobs jobs bounds f =
    fst (Solver.solve ~options:{ Solver.default_options with Solver.jobs } ~bounds f)
  in
  let circle_unsat =
    Formula.and_
      [
        Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
        Formula.ge (Expr.( + ) x y) (Expr.const 1.6);
      ]
  in
  let circle_sat =
    Formula.and_
      [
        Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
        Formula.ge (Expr.( + ) x y) (Expr.const 1.3);
      ]
  in
  let disjunct_unsat =
    Formula.and_
      [
        Formula.or_ [ Formula.le x (Expr.const (-1.5)); Formula.ge x (Expr.const 1.5) ];
        Formula.le (Expr.pow x 2) (Expr.const 1.0);
      ]
  in
  let tanh_unsat = Formula.gt (Expr.tanh x) (Expr.const 1.01) in
  let cases =
    [
      ("circle unsat", bounds2, circle_unsat);
      ("circle sat", bounds2, circle_sat);
      ("disjunction unsat", [ ("x", -2.0, 2.0) ], disjunct_unsat);
      ("tanh unsat", [ ("x", -100.0, 100.0) ], tanh_unsat);
    ]
  in
  List.iter
    (fun (name, bounds, f) ->
      match (solve_jobs 1 bounds f, solve_jobs 4 bounds f) with
      | Solver.Unsat, Solver.Unsat -> ()
      | Solver.Delta_sat w1, Solver.Delta_sat w4 ->
        (* Witnesses may differ across job counts, but both must satisfy
           the δ-weakened formula. *)
        Alcotest.(check bool)
          (name ^ ": sequential witness delta-holds")
          true
          (Formula.holds_delta 1e-2 w1 f);
        Alcotest.(check bool)
          (name ^ ": parallel witness delta-holds")
          true
          (Formula.holds_delta 1e-2 w4 f)
      | v1, v4 ->
        let s = function
          | Solver.Unsat -> "unsat"
          | Solver.Delta_sat _ -> "delta-sat"
          | Solver.Unknown -> "unknown"
        in
        Alcotest.failf "%s: jobs=1 gives %s but jobs=4 gives %s" name (s v1) (s v4))
    cases

let test_solver_parallel_stats_merged () =
  (* Parallel runs must still account every branch: a jobs=4 refutation
     claims at least one box, and the frontier counter must come back
     merged rather than lost. *)
  let f =
    Formula.and_
      [
        Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
        Formula.ge (Expr.( + ) x y) (Expr.const 1.6);
      ]
  in
  let stealing = { Solver.default_options with Solver.jobs = 4 } in
  let verdict, st = Solver.solve ~options:stealing ~bounds:bounds2 f in
  expect_unsat "parallel circle (stealing)" verdict;
  Alcotest.(check bool) "stealing branches accounted" true (st.Solver.branches >= 1);
  Alcotest.(check bool)
    "stealing frontier recorded" true
    (st.Solver.frontier_high_water >= 1)

let test_solver_mvf_prunes () =
  (* x·x − 2·x·y + y·y is (x − y)² ≥ 0, but its natural interval extension
     cannot see that (the dependency problem), so HC4 alone cannot refute
     it below zero.  The mean-value form can, and its prunes are counted
     apart within the total. *)
  let f = Formula.le Expr.((x * x) - (const 2.0 * x * y) + (y * y)) (Expr.const (-0.1)) in
  let v, st = Solver.solve ~bounds:bounds2 f in
  expect_unsat "expanded square below zero" v;
  Alcotest.(check bool)
    (Printf.sprintf "mvf prunes %d in (0, %d]" st.Solver.mvf_prunes st.Solver.prunes)
    true
    (st.Solver.mvf_prunes > 0 && st.Solver.mvf_prunes <= st.Solver.prunes)

let prop_solver_sound_on_linear =
  (* For random linear constraints the exact answer is checkable: a
     conjunction a1·x + b1·y <= c1 ∧ a2·x + b2·y <= c2 over a box is
     satisfiable iff some corner/vertex candidate satisfies it (linear,
     so the feasible set, if nonempty, touches the box of candidates
     densely; we just sample). *)
  QCheck.Test.make ~name:"no unsat verdict when a solution point exists" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a1 = Rng.uniform rng (-1.0) 1.0
      and b1 = Rng.uniform rng (-1.0) 1.0
      and c1 = Rng.uniform rng (-1.0) 1.0 in
      let a2 = Rng.uniform rng (-1.0) 1.0
      and b2 = Rng.uniform rng (-1.0) 1.0
      and c2 = Rng.uniform rng (-1.0) 1.0 in
      let lhs1 = Expr.( + ) (Expr.( * ) (Expr.const a1) x) (Expr.( * ) (Expr.const b1) y) in
      let lhs2 = Expr.( + ) (Expr.( * ) (Expr.const a2) x) (Expr.( * ) (Expr.const b2) y) in
      let f = Formula.and_ [ Formula.le lhs1 (Expr.const c1); Formula.le lhs2 (Expr.const c2) ] in
      (* Sample candidate solutions. *)
      let found = ref false in
      for _ = 1 to 200 do
        let px = Rng.uniform rng (-2.0) 2.0 and py = Rng.uniform rng (-2.0) 2.0 in
        if (a1 *. px) +. (b1 *. py) <= c1 && (a2 *. px) +. (b2 *. py) <= c2 then found := true
      done;
      match solve bounds2 f with
      | Solver.Unsat -> not !found
      | Solver.Delta_sat _ | Solver.Unknown -> true)

let prop_parallel_parity =
  (* The sat/unsat verdict of the work-stealing search must equal the
     sequential search's, whatever the steal interleaving (exercised
     through distinct victim-rotation seeds): the branch-and-prune tree is
     deterministic given the options, so every traversal order reaches the
     same conclusion.  Witnesses may differ between runs, but every
     Delta_sat witness must δ-hold. *)
  QCheck.Test.make ~name:"verdict parity across jobs and steal seeds" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let coef () = Expr.const (Rng.uniform rng (-2.0) 2.0) in
      let term () =
        match Rng.int rng 4 with
        | 0 -> Expr.( * ) (coef ()) x
        | 1 -> Expr.( * ) (coef ()) y
        | 2 -> Expr.( * ) (coef ()) (Expr.sin x)
        | _ -> Expr.( * ) (coef ()) (Expr.pow y 2)
      in
      let atom () =
        let lhs = Expr.( + ) (term ()) (term ()) in
        let rhs = Expr.const (Rng.uniform rng (-1.5) 1.5) in
        if Rng.int rng 2 = 0 then Formula.le lhs rhs else Formula.ge lhs rhs
      in
      let f =
        match Rng.int rng 3 with
        | 0 -> atom ()
        | 1 -> Formula.and_ [ atom (); atom () ]
        | _ -> Formula.or_ [ atom (); Formula.and_ [ atom (); atom () ] ]
      in
      let delta = 1e-2 in
      let run jobs steal_seed =
        fst
          (Solver.solve
             ~options:{ Solver.default_options with Solver.delta; jobs; steal_seed }
             ~bounds:bounds2 f)
      in
      let witness_ok = function
        | Solver.Delta_sat w -> Formula.holds_delta delta w f
        | Solver.Unsat | Solver.Unknown -> true
      in
      let base = run 1 0 in
      let runs = List.map (run 4) [ 1; 2; 3 ] in
      witness_ok base
      && List.for_all
           (fun v ->
             witness_ok v
             &&
             match (base, v) with
             | Solver.Unsat, Solver.Unsat
             | Solver.Delta_sat _, Solver.Delta_sat _
             | Solver.Unknown, Solver.Unknown -> true
             | _ -> false)
           runs)

let test_solver_steal_imbalanced () =
  (* Margin-tight refutation whose work concentrates in the corner subtree
     near x + y = √2: under a static split most subboxes refute instantly
     and one carries hundreds of branches, so this is the load-imbalance
     regression for the work-stealing scheduler.  Verdict and branch count
     must match the sequential run exactly; steals must actually occur.
     The wall-clock bound is deliberately generous (the CI container may
     expose a single core, where extra domains only add overhead). *)
  let f =
    Formula.and_
      [
        Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
        Formula.ge (Expr.( + ) x y) (Expr.const 1.4142137);
      ]
  in
  let opts jobs = { Solver.default_options with Solver.delta = 1e-7; jobs } in
  let (v1, st1), dt1 =
    Timing.time (fun () -> Solver.solve ~options:(opts 1) ~bounds:bounds2 f)
  in
  let (v4, st4), dt4 =
    Timing.time (fun () -> Solver.solve ~options:(opts 4) ~bounds:bounds2 f)
  in
  expect_unsat "imbalanced jobs=1" v1;
  expect_unsat "imbalanced jobs=4" v4;
  Alcotest.(check int) "branch count matches sequential" st1.Solver.branches st4.Solver.branches;
  Alcotest.(check bool) "steals occurred" true (st4.Solver.steals > 0);
  Alcotest.(check bool) "frontier widened" true (st4.Solver.frontier_high_water > 1);
  Alcotest.(check bool)
    (Printf.sprintf "stealing wall %.4fs within 10x sequential %.4fs + 0.25s slack" dt4 dt1)
    true
    (dt4 <= (10.0 *. dt1) +. 0.25)

let test_solver_prepared_reuse () =
  (* prepare-once/solve-many: all tape compilation happens in [prepare];
     subsequent [solve_prepared] calls over different bounds compile
     nothing. *)
  let f =
    Formula.and_
      [
        Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
        Formula.ge (Expr.( + ) x y) (Expr.const 1.3);
      ]
  in
  let before = Tape.compile_count () in
  let p = Solver.prepare ~vars:[ "x"; "y" ] f in
  let compiled_by_prepare = Tape.compile_count () - before in
  Alcotest.(check bool) "prepare compiles the tapes" true (compiled_by_prepare > 0);
  let before_solves = Tape.compile_count () in
  expect_unsat "prepared unsat box"
    (fst (Solver.solve_prepared p ~bounds:[ ("x", -1.0, -0.5); ("y", -1.0, -0.5) ]));
  let w = expect_sat "prepared sat box" (fst (Solver.solve_prepared p ~bounds:bounds2)) in
  Alcotest.(check bool) "prepared witness delta-holds" true
    (Formula.holds_delta Solver.default_options.Solver.delta w f);
  Alcotest.(check int) "solve_prepared compiles nothing" before_solves (Tape.compile_count ());
  (* Per-call option overrides. *)
  expect_unsat "prepared with overridden delta"
    (fst
       (Solver.solve_prepared
          ~options:{ Solver.default_options with Solver.delta = 1e-5 }
          p
          ~bounds:[ ("x", -1.0, -0.5); ("y", -1.0, -0.5) ]));
  (* Bounds must list exactly the prepared variables, in prepare order. *)
  (match Solver.solve_prepared p ~bounds:[ ("y", -2.0, 2.0); ("x", -2.0, 2.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reordered bounds must be rejected");
  (match Solver.solve_prepared p ~bounds:[ ("x", -2.0, 2.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing bounds must be rejected")

(* --- Covers: recorded Unsat proofs and their replay ----------------------- *)

(* The imbalanced corner refutation of [test_solver_steal_imbalanced]: an
   Unsat answer with hundreds of boxes, steals at jobs > 1, and leaves
   closed by HC4 and by the mean-value form. *)
let corner =
  Formula.and_
    [
      Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
      Formula.ge (Expr.( + ) x y) (Expr.const 1.4142137);
    ]

let corner_options jobs = { Solver.default_options with Solver.delta = 1e-7; jobs }

let record_corner ?(steal_seed = 0) jobs =
  let options = { (corner_options jobs) with Solver.steal_seed } in
  let p = Solver.prepare ~options ~vars:[ "x"; "y" ] corner in
  let v, st = Solver.solve_prepared ~record:true p ~bounds:bounds2 in
  expect_unsat "recorded corner" v;
  match st.Solver.cover with
  | Some c -> (p, c)
  | None -> Alcotest.fail "an Unsat search under ~record:true carries its cover"

let test_cover_replays () =
  let p, cover = record_corner 1 in
  let nodes = Array.fold_left (fun n t -> n + Array.length t.Solver.nodes) 0 cover.Solver.trees in
  Alcotest.(check int) "one tree per disjunct" (List.length (Formula.to_dnf corner))
    (Array.length cover.Solver.trees);
  Alcotest.(check (float 0.0)) "cover delta" 1e-7 cover.Solver.delta;
  let v, st = Solver.replay p ~bounds:bounds2 cover in
  (* This query's margin is 1.4e-7: near the tangent point the forward and
     mean-value tests close only boxes narrower than that, so the walk
     stops at the first leaf they leave open, and answers open: no search,
     no stop. *)
  expect_open "replayed corner" (v, st);
  Alcotest.(check int) "no box searched" 0 st.Solver.branches;
  Alcotest.(check bool)
    (Printf.sprintf "walk stopped after %d of %d nodes" st.Solver.replay_nodes nodes)
    true
    (st.Solver.replay_nodes < nodes);
  Alcotest.(check bool) "the cover does not refine" true
    (Solver.refine p ~bounds:bounds2 cover = None);
  Alcotest.(check bool) "no cover unless recorded" true
    ((snd (Solver.solve_prepared p ~bounds:bounds2)).Solver.cover = None);
  (* A cover that does not fit the query leaves the walk open, never
     closed: the other half-plane has solutions. *)
  let sat_p =
    Solver.prepare ~options:(corner_options 1) ~vars:[ "x"; "y" ]
      (Formula.and_
         [
           Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
           Formula.ge (Expr.( + ) x y) (Expr.const 1.0);
         ])
  in
  expect_open "foreign cover" (Solver.replay sat_p ~bounds:bounds2 cover)

(* The disk against the half-plane x + y >= [c]: Unsat for c > √2. *)
let disk_beyond c =
  Formula.and_
    [
      Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
      Formula.ge (Expr.( + ) x y) (Expr.const c);
    ]

(* A corner with margin, the cover its search recorded, and that cover
   refined. *)
let loose_corner =
  lazy
    (let p = Solver.prepare ~vars:[ "x"; "y" ] (disk_beyond 1.5) in
     let v, st = Solver.solve_prepared ~record:true p ~bounds:bounds2 in
     expect_unsat "loose corner" v;
     let searched = Option.get st.Solver.cover in
     match Solver.refine p ~bounds:bounds2 searched with
     | Some refined -> (p, searched, refined)
     | None -> Alcotest.fail "the loose corner's cover refines")

let count_nodes pred (c : Solver.cover) =
  Array.fold_left
    (fun n t -> Array.fold_left (fun n node -> if pred node then n + 1 else n) n t.Solver.nodes)
    0 c.Solver.trees

let leaf_count = count_nodes (fun node -> node land 3 <> 0)

(* A refined cover closes every leaf where it stands: the check visits
   each node once, searches nowhere and calls no HC4. *)
let test_refined_cover () =
  let p, searched, v4 = Lazy.force loose_corner in
  Alcotest.(check int) "one leaf more per midpoint split" (leaf_count v4 - leaf_count searched)
    (count_nodes (( = ) (-4)) v4);
  Alcotest.(check bool) "splits and leaves only" true
    (Array.for_all
       (fun t ->
         Array.for_all
           (fun node -> node = -4 || node = 3 || (node land 3 = 0 && node >= 0))
           t.Solver.nodes)
       v4.Solver.trees);
  let check_v4 name diverse =
    let v, st = Solver.replay ~diverse p ~bounds:bounds2 v4 in
    expect_unsat name v;
    Alcotest.(check (list int))
      (name ^ ": nodes, boxes searched, HC4 calls")
      [ Array.length v4.Solver.trees.(0).Solver.nodes; 0; 0 ]
      [ st.Solver.replay_nodes; st.Solver.branches; st.Solver.hc4_calls ];
    Alcotest.(check int) (name ^ ": leaves by kind") (leaf_count v4)
      (st.Solver.replay_forward + st.Solver.replay_mvf)
  in
  check_v4 "v4 check" false;
  check_v4 "diverse v4 check" true;
  Alcotest.(check bool) "refining a refined cover returns it" true
    (Solver.refine p ~bounds:bounds2 v4 = Some v4)

(* A midpoint split needs a midpoint strictly inside the widest variable's
   interval; on a point box, or one a float wide, the walk stays open,
   and the search decides the box either way. *)
let test_degenerate_midpoint () =
  let cover =
    { Solver.delta = 1e-3; trees = [| { Solver.nodes = [| -4; 3; 3 |]; points = [||] } |] }
  in
  List.iter
    (fun (name, lo, hi) ->
      let bounds = [ ("x", lo, hi); ("y", 0.5, 0.5) ] in
      let decide c =
        let p = Solver.prepare ~vars:[ "x"; "y" ] (disk_beyond c) in
        expect_open (name ^ ": walk") (Solver.replay p ~bounds cover);
        fst (Solver.solve_prepared p ~bounds)
      in
      expect_unsat (name ^ ": unsat box") (decide 1.5);
      ignore (expect_sat (name ^ ": sat box") (decide 0.9)))
    [ ("point box", 0.5, 0.5); ("one float wide", 0.5, Float.succ 0.5) ]

(* Position just past the subtree that starts at [i]. *)
let subtree_end nodes i =
  let rec go j pending =
    if pending = 0 then j
    else go (j + 1) (pending - 1 + if nodes.(j) land 3 = 0 then 2 else 0)
  in
  go i 1

(* A cover proves nothing by itself: replayed against a query that has
   solutions, no tampering of it — a node's kind or variable flipped, a
   split point moved anywhere, nodes cut or appended — yields Unsat, and
   none raises, under the tape walk or the diverse one (odd [pos]).  The
   untampered replay walks [reach] nodes before it meets a leaf it cannot
   close; every tamper lands in that prefix, so the walk always meets
   it. *)
let prop_tampered_cover_never_hides_solutions =
  let _, cover = record_corner 1 in
  let sat_p =
    Solver.prepare ~options:(corner_options 1) ~vars:[ "x"; "y" ]
      (Formula.and_
         [
           Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
           Formula.ge (Expr.( + ) x y) (Expr.const 1.41);
         ])
  in
  let reach = (snd (Solver.replay sat_p ~bounds:bounds2 cover)).Solver.replay_nodes in
  let t = cover.Solver.trees.(0) in
  let splits_reached =
    Array.fold_left (fun n node -> if node land 3 = 0 then n + 1 else n) 0
      (Array.sub t.Solver.nodes 0 reach)
  in
  QCheck.Test.make ~name:"tampered cover never hides a solution" ~count:150
    QCheck.(triple (int_range 0 4) (int_range 0 100_000) (float_range (-3.0) 3.0))
    (fun (kind, pos, value) ->
      let nodes = Array.copy t.Solver.nodes and points = Array.copy t.Solver.points in
      let k = pos mod reach in
      let nodes, points =
        match kind with
        | 0 -> (nodes.(k) <- nodes.(k) lxor (1 + (pos mod 3)); (nodes, points))
        | 1 -> (nodes.(k) <- nodes.(k) lxor 4; (nodes, points))
        | 2 -> (points.(pos mod splits_reached) <- value; (nodes, points))
        | 3 -> (Array.sub nodes 0 k, points)
        | _ -> (Array.append nodes [| pos land 7; 1; 2 |], points)
      in
      let tampered = { cover with Solver.trees = [| { Solver.nodes; points } |] } in
      match Solver.replay ~diverse:(pos land 1 = 1) sat_p ~bounds:bounds2 tampered with
      | Solver.Unsat, _ -> QCheck.Test.fail_report "tampered cover answered unsat"
      | (Solver.Delta_sat _ | Solver.Unknown), _ -> true)

(* The same for a v4 cover and its own kinds: a midpoint split turned
   into a leaf (its subtrees dropped) or a leaf into a midpoint split over
   two leaves, nodes cut or appended.  Every tamper but the append lands in
   the prefix the untampered check walks before it meets a box with
   solutions, which it cannot close.  Odd [pos] walks with [Expr]. *)
let prop_tampered_v4_cover_never_hides_solutions =
  let sat_p = lazy (Solver.prepare ~vars:[ "x"; "y" ] (disk_beyond 1.41)) in
  QCheck.Test.make ~name:"tampered v4 cover never hides a solution" ~count:150
    QCheck.(pair (int_range 0 3) (int_range 0 100_000))
    (fun (kind, pos) ->
      let _, _, v4 = Lazy.force loose_corner in
      let sat_p = Lazy.force sat_p in
      let t = v4.Solver.trees.(0) in
      let nodes = t.Solver.nodes in
      let reach = (snd (Solver.replay sat_p ~bounds:bounds2 v4)).Solver.replay_nodes in
      let pick pred =
        match List.filter (fun i -> pred nodes.(i)) (List.init reach Fun.id) with
        | [] -> pos mod reach
        | l -> List.nth l (pos mod List.length l)
      in
      let splice i j repl =
        Array.concat [ Array.sub nodes 0 i; repl; Array.sub nodes j (Array.length nodes - j) ]
      in
      let nodes =
        match kind with
        | 0 ->
          let i = pick (fun n -> n = -4) in
          splice i (subtree_end nodes i) [| 3 |]
        | 1 ->
          let i = pick (fun n -> n land 3 <> 0) in
          splice i (i + 1) [| -4; 3; 3 |]
        | 2 -> Array.sub nodes 0 (pos mod reach)
        | _ -> Array.append nodes [| -4; 3; 3 |]
      in
      let tampered = { v4 with Solver.trees = [| { t with Solver.nodes } |] } in
      match Solver.replay ~diverse:(pos land 1 = 1) sat_p ~bounds:bounds2 tampered with
      | Solver.Unsat, _ -> QCheck.Test.fail_report "tampered v4 cover answered unsat"
      | (Solver.Delta_sat _ | Solver.Unknown), _ -> true)

(* Each box files its record under its own slot, so the cover does not
   depend on which worker expanded which box. *)
let test_cover_job_independent () =
  let _, c1 = record_corner 1 in
  List.iter
    (fun (jobs, steal_seed) ->
      let _, c = record_corner ~steal_seed jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d seed %d cover = jobs 1 cover" jobs steal_seed)
        true (c = c1))
    [ (2, 0); (2, 3); (4, 1) ]

(* The circle x² + y² = 1 has δ-witnesses at every δ.  Calling each one
   spurious refines δ four times in the running search, and the answer is
   the witness a search restarted at the finest δ finds first. *)
let test_refinement_is_restart () =
  let f = Formula.eq (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0) in
  let p = Solver.prepare ~vars:[ "x"; "y" ] f in
  let v, st = Solver.solve_prepared ~spurious:(fun _ -> true) p ~bounds:bounds2 in
  Alcotest.(check int) "four refinements" 4 st.Solver.refinements;
  let finest =
    List.fold_left (fun d _ -> d /. 100.0) Solver.default_options.Solver.delta [ 1; 2; 3; 4 ]
  in
  let restarted, st_r =
    Solver.solve_prepared
      ~options:{ Solver.default_options with Solver.delta = finest }
      p ~bounds:bounds2
  in
  Alcotest.(check bool) "same witness as the restart" true (v = restarted);
  ignore (expect_sat "refined circle" v);
  Alcotest.(check int) "the restart's branches plus 4 re-steps" (st_r.Solver.branches + 4)
    st.Solver.branches;
  let v1, st1 = Solver.solve_prepared ~spurious:(fun _ -> false) p ~bounds:bounds2 in
  Alcotest.(check int) "a genuine witness is not refined" 0 st1.Solver.refinements;
  Alcotest.(check bool) "same witness as a plain search" true
    (v1 = fst (Solver.solve_prepared p ~bounds:bounds2))


let () =
  Alcotest.run "smt"
    [
      ( "formula",
        [
          Alcotest.test_case "evaluation" `Quick test_formula_eval;
          Alcotest.test_case "simplification" `Quick test_formula_simplification;
          Alcotest.test_case "dnf" `Quick test_dnf;
          Alcotest.test_case "dnf with negation" `Quick test_dnf_negation;
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "delta-weakened truth" `Quick test_holds_delta;
        ] );
      ( "hc4",
        [
          Alcotest.test_case "linear contraction" `Quick test_hc4_linear_contraction;
          Alcotest.test_case "empty detection" `Quick test_hc4_empty;
          Alcotest.test_case "tanh inversion" `Quick test_hc4_tanh_inversion;
          Alcotest.test_case "certainly true" `Quick test_hc4_certainly_true;
          Alcotest.test_case "change reporting" `Quick test_hc4_change_reporting;
          Alcotest.test_case "zero products keep solutions" `Quick test_hc4_zero_products;
          Alcotest.test_case "cube root at 1e30 keeps solutions" `Quick test_hc4_cube_root_bound;
          QCheck_alcotest.to_alcotest prop_hc4_sound;
        ] );
      ( "solver",
        [
          Alcotest.test_case "circle unsat" `Quick test_solver_circle_unsat;
          Alcotest.test_case "circle sat" `Quick test_solver_circle_sat;
          Alcotest.test_case "trig root" `Quick test_solver_trig_root;
          Alcotest.test_case "tanh bound" `Quick test_solver_tanh_bound;
          Alcotest.test_case "disjunction" `Quick test_solver_disjunction;
          Alcotest.test_case "rect helpers" `Quick test_solver_rect_helpers;
          Alcotest.test_case "zero products delta-sat (tape)" `Quick test_solver_zero_products;
          Alcotest.test_case "cube root at 1e30 delta-sat (tape)" `Quick
            test_solver_cube_root_bound;
          Alcotest.test_case "unknown under budget" `Quick test_solver_unknown_budget;
          Alcotest.test_case "deadline stop" `Quick test_solver_deadline_stop;
          Alcotest.test_case "cancellation stop" `Quick test_solver_cancellation;
          Alcotest.test_case "shared branch pool" `Quick test_solver_branch_pool;
          Alcotest.test_case "unbound var rejected" `Quick test_solver_unbound_var_rejected;
          Alcotest.test_case "duplicate bounds rejected" `Quick
            test_solver_duplicate_bounds_rejected;
          Alcotest.test_case "parallel verdict agreement" `Quick
            test_solver_parallel_agreement;
          Alcotest.test_case "parallel stats merged" `Quick test_solver_parallel_stats_merged;
          Alcotest.test_case "universal prove wrapper" `Quick test_prove_universal;
          Alcotest.test_case "mean-value-form prunes" `Quick test_solver_mvf_prunes;
          Alcotest.test_case "imbalanced workload steals" `Quick test_solver_steal_imbalanced;
          Alcotest.test_case "prepared query reuse" `Quick test_solver_prepared_reuse;
          Alcotest.test_case "recorded cover replays" `Quick test_cover_replays;
          Alcotest.test_case "refined cover closes every leaf" `Quick test_refined_cover;
          Alcotest.test_case "degenerate midpoint split searched" `Quick test_degenerate_midpoint;
          Alcotest.test_case "cover is job-independent" `Quick test_cover_job_independent;
          Alcotest.test_case "in-search refinement is a restart" `Quick
            test_refinement_is_restart;
          QCheck_alcotest.to_alcotest prop_tampered_cover_never_hides_solutions;
          QCheck_alcotest.to_alcotest prop_tampered_v4_cover_never_hides_solutions;
          QCheck_alcotest.to_alcotest prop_solver_sound_on_linear;
          QCheck_alcotest.to_alcotest prop_parallel_parity;
        ] );
    ]
