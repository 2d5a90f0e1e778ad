(* Tests for the compiled-tape pipeline: hash-consed DAG construction,
   tape/tree evaluation parity (atom and partials), tape HC4 soundness and
   tightness versus the tree contractor in hc4.ml, the solver's
   compile-once-per-disjunct contract, and agreement of the tape search
   with the diverse walk (including the Dubins barrier conditions). *)

let x = Expr.var "x"

let y = Expr.var "y"

let index_of_xy v =
  if String.equal v "x" then 0
  else if String.equal v "y" then 1
  else Alcotest.failf "unexpected variable %s" v

let atom_of f =
  match f with Formula.Atom a -> a | _ -> Alcotest.fail "expected atom"

(* --- DAG --------------------------------------------------------------- *)

let test_dag_cse () =
  (* tanh(x+y) occurs three times in the tree but must be one DAG node. *)
  let s = Expr.tanh (Expr.( + ) x y) in
  let e = Expr.( + ) (Expr.( * ) s s) s in
  let pool = Dag.create () in
  let root = Dag.intern pool e in
  (* Distinct subterms: x, y, x+y, tanh, tanh*tanh, +root — 6 nodes versus
     a tree size of 11. *)
  Alcotest.(check int) "node count" 6 (Dag.node_count pool);
  Alcotest.(check bool) "smaller than tree" true (Dag.node_count pool < Expr.size e);
  (* Re-interning is a no-op returning the same id. *)
  Alcotest.(check int) "stable id" root (Dag.intern pool e);
  Alcotest.(check int) "no growth" 6 (Dag.node_count pool);
  (* Shared subterm resolves to one id from either path. *)
  Alcotest.(check int) "shared id" (Dag.intern pool s) (Dag.intern pool (Expr.tanh (Expr.( + ) x y)))

let test_dag_topological () =
  let e = Expr.( * ) (Expr.sin (Expr.( + ) x y)) (Expr.( + ) x (Expr.tanh y)) in
  let pool = Dag.create () in
  ignore (Dag.intern pool e : int);
  Array.iteri
    (fun id op ->
      let check o = Alcotest.(check bool) "operand before node" true (o < id) in
      match op with
      | Dag.Const _ | Dag.Var _ -> ()
      | Dag.Add (a, b) | Dag.Sub (a, b) | Dag.Mul (a, b) | Dag.Div (a, b) ->
        check a;
        check b
      | Dag.Neg a | Dag.Pow (a, _) | Dag.Sin a | Dag.Cos a | Dag.Atan a
      | Dag.Exp a | Dag.Log a | Dag.Tanh a | Dag.Sigmoid a | Dag.Sqrt a
      | Dag.Abs a ->
        check a)
    (Dag.ops pool)

let test_dag_zero_signs_distinct () =
  (* 0. and -0. compare structurally equal but divide differently; the
     const table keys by bit pattern to keep them apart. *)
  let pool = Dag.create () in
  let a = Dag.intern pool (Expr.Const 0.0) and b = Dag.intern pool (Expr.Const (-0.0)) in
  Alcotest.(check bool) "distinct nodes" true (a <> b)

let test_dag_partials_share_primal () =
  (* Derivatives of a controller re-mention tanh(net_i): interning them
     into the primal's pool must reuse those nodes wholesale. *)
  let net = Error_dynamics.controller_of_width 10 in
  let e = Error_dynamics.symbolic_controller net in
  let dd = Expr.diff Error_dynamics.var_derr e
  and dt = Expr.diff Error_dynamics.var_theta_err e in
  let pool = Dag.create () in
  ignore (Dag.intern pool e : int);
  let primal_nodes = Dag.node_count pool in
  ignore (Dag.intern pool dd : int);
  ignore (Dag.intern pool dt : int);
  let total = Dag.node_count pool in
  let tree_total = Expr.size e + Expr.size dd + Expr.size dt in
  Alcotest.(check bool)
    (Printf.sprintf "shared: %d dag nodes (primal %d) vs %d tree nodes" total primal_nodes
       tree_total)
    true
    (total < tree_total)

(* --- Random expressions with forced shared subterms -------------------- *)

(* The [shared] argument is spliced in at the leaves, so the generated tree
   mentions it several times — exactly the structural sharing the tape is
   supposed to exploit (and a tree evaluator re-evaluates). *)
let gen_expr rng depth =
  let shared =
    match Rng.int rng 3 with
    | 0 -> Expr.tanh (Expr.( + ) x y)
    | 1 -> Expr.( * ) x y
    | _ -> Expr.sin (Expr.( - ) x y)
  in
  let rec gen depth =
    if depth = 0 then begin
      match Rng.int rng 5 with
      | 0 -> x
      | 1 -> y
      | 2 | 3 -> shared
      | _ -> Expr.const (Rng.uniform rng (-2.0) 2.0)
    end
    else begin
      match Rng.int rng 11 with
      | 0 -> Expr.( + ) (gen (depth - 1)) (gen (depth - 1))
      | 1 -> Expr.( - ) (gen (depth - 1)) (gen (depth - 1))
      | 2 -> Expr.( * ) (gen (depth - 1)) (gen (depth - 1))
      | 3 -> Expr.( / ) (gen (depth - 1)) (gen (depth - 1))
      | 4 -> Expr.sin (gen (depth - 1))
      | 5 -> Expr.tanh (gen (depth - 1))
      | 6 -> Expr.pow (gen (depth - 1)) 2
      | 7 -> Expr.abs (gen (depth - 1))
      | 8 -> Expr.sigmoid (gen (depth - 1))
      | 9 -> Expr.exp (gen (depth - 1))
      | _ -> Expr.neg (gen (depth - 1))
    end
  in
  gen depth

let compile_tape ?partials atom = Tape.compile ~index_of:index_of_xy ?partials atom

let prop_point_eval_parity =
  (* Tape point evaluation is the same float program as Expr.eval: results
     must agree bit-for-bit (including non-finite outcomes). *)
  QCheck.Test.make ~name:"tape point eval ≡ tree eval" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0)))
    (fun (seed, (px, py)) ->
      let e = gen_expr (Rng.create seed) 4 in
      let tree = Expr.eval_env [ ("x", px); ("y", py) ] e in
      let tape = compile_tape { Formula.expr = e; rel = Formula.Le0 } in
      let b = Tape.make_buffers tape in
      let v = Tape.eval_point tape b [| px; py |] in
      Int64.equal (Int64.bits_of_float tree) (Int64.bits_of_float v)
      || (Float.is_nan tree && Float.is_nan v))

(* Equal enclosures, bit for bit (an empty one equals any empty one). *)
let same_ival a b =
  let bits i =
    if Interval.is_empty i then None
    else Some (Int64.bits_of_float (Interval.lo i), Int64.bits_of_float (Interval.hi i))
  in
  bits a = bits b

let prop_interval_eval_parity =
  (* The tape's forward kernels are transcriptions of Interval's, and CSE
     cannot change a deterministic result — enclosures must be equal, which
     subsumes the soundness requirement that the tape encloses the tree.
     The same holds for the partial slots against [Expr.ieval] of each
     [Expr.diff] partial: the diverse walk (Solver.replay ~diverse) tests
     its leaves with those, the tape walk with these. *)
  QCheck.Test.make ~name:"tape interval eval ≡ tree ieval" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let e = gen_expr rng 4 in
      let dx = Interval.make (Rng.uniform rng (-3.0) 0.0) (Rng.uniform rng 0.0 3.0)
      and dy = Interval.make (Rng.uniform rng (-3.0) 0.0) (Rng.uniform rng 0.0 3.0) in
      let ieval = Expr.ieval (fun v -> if String.equal v "x" then dx else dy) in
      let partials = [| Expr.diff "x" e; Expr.diff "y" e |] in
      let tape = compile_tape ~partials { Formula.expr = e; rel = Formula.Le0 } in
      let b = Tape.make_buffers tape in
      let tv = Tape.forward tape b [| dx; dy |] in
      Tape.forward_partials tape b [| dx; dy |];
      same_ival (ieval e) tv
      && List.for_all
           (fun i -> same_ival (ieval partials.(i)) (Tape.partial_ival tape b i))
           [ 0; 1 ])

(* Whether [e] has a value at [env]: a division by 0 has none, even where
   a saturating activation above it hides the infinity from the root. *)
let rec defined_at env (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Var _ -> true
  | Expr.Div (a, b) -> Expr.eval_env env b <> 0.0 && defined_at env a && defined_at env b
  | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) -> defined_at env a && defined_at env b
  | Expr.Neg a | Expr.Pow (a, _) | Expr.Sin a | Expr.Cos a | Expr.Atan a | Expr.Exp a
  | Expr.Log a | Expr.Tanh a | Expr.Sigmoid a | Expr.Sqrt a | Expr.Abs a ->
    defined_at env a

let prop_tape_revise_sound =
  (* Tape HC4 never removes points that satisfy the constraint.  The point
     may have a coordinate at exactly 0, and the box may pin a coordinate
     to the point's value: a product with a zero factor under a requirement
     holding 0 is where a backward projection must keep every value of the
     other factor.  [shape mod 3] zeroes no coordinate, x or y; [shape / 3]
     pins none, x or y.  The equality is (x - px)·e = 0, which holds at the
     point in real arithmetic; e = value would not wherever [value] was
     rounded. *)
  QCheck.Test.make ~name:"tape HC4 keeps all solutions" ~count:300
    QCheck.(
      pair (int_range 0 1_000_000)
        (quad (float_range (-3.0) 3.0) (float_range (-3.0) 3.0) (int_range 0 2) (int_range 0 8)))
    (fun (seed, (px, py, rel_pick, shape)) ->
      let px = if shape mod 3 = 1 then 0.0 else px
      and py = if shape mod 3 = 2 then 0.0 else py in
      let e = gen_expr (Rng.create seed) 3 in
      let env = [ ("x", px); ("y", py) ] in
      let value = Expr.eval_env env e in
      if not (Float.is_finite value && defined_at env e) then true
      else begin
        let f =
          match rel_pick with
          | 0 -> Formula.le e (Expr.const (value +. 1.0))
          | 1 -> Formula.lt e (Expr.const (value +. 1.0))
          | _ -> Formula.eq (Expr.( * ) (Expr.( - ) x (Expr.const px)) e) (Expr.const 0.0)
        in
        let tape = compile_tape (atom_of f) in
        let b = Tape.make_buffers tape in
        let wide = Interval.make (-3.0) 3.0 in
        let domains =
          match shape / 3 with
          | 0 -> [| wide; wide |]
          | 1 -> [| Interval.of_float px; wide |]
          | _ -> [| wide; Interval.of_float py |]
        in
        match Tape.revise tape b domains with
        | _ -> Interval.mem px domains.(0) && Interval.mem py domains.(1)
        | exception Tape.Empty_box -> false
      end)

let prop_tape_at_least_as_tight =
  (* Shared-node contraction uses the meet of all parents' requirements, so
     one tape pass must contract at least as much as one tree pass: tape
     domains ⊆ tree domains, and a tree-detected empty box is also
     tape-detected.  (The tape being *strictly* tighter, including pruning
     boxes the tree keeps, is allowed and expected.) *)
  QCheck.Test.make ~name:"tape HC4 at least as tight as tree HC4" ~count:300
    QCheck.(pair (int_range 0 1_000_000) (pair (float_range (-2.0) 2.0) small_nat))
    (fun (seed, (c, rel_pick)) ->
      let e = gen_expr (Rng.create seed) 3 in
      let rhs = Expr.const c in
      let atom =
        atom_of
          (match rel_pick mod 3 with
          | 0 -> Formula.le e rhs
          | 1 -> Formula.lt e rhs
          | _ -> Formula.eq e rhs)
      in
      let ctree = Hc4.compile ~index_of:index_of_xy atom in
      let tape = compile_tape atom in
      let b = Tape.make_buffers tape in
      let dt = [| Interval.make (-3.0) 3.0; Interval.make (-3.0) 3.0 |] in
      let dp = Array.copy dt in
      let tree_alive = match Hc4.revise dt ctree with _ -> true | exception Hc4.Empty_box -> false in
      let tape_alive = match Tape.revise tape b dp with _ -> true | exception Tape.Empty_box -> false in
      if not tree_alive then not tape_alive
      else
        (not tape_alive)
        || (Interval.subset dp.(0) dt.(0) && Interval.subset dp.(1) dt.(1)))

let prop_forward_partials_parity =
  (* A forward sweep continued over the partial slots is the fused sweep:
     the same enclosures of the atom and of every partial, bit for bit —
     on a fresh buffer and on one a sweep of another box left dirty. *)
  QCheck.Test.make ~name:"forward then forward_partials ≡ forward_all" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let e = gen_expr rng 4 in
      let partials = [| Expr.diff "x" e; Expr.diff "y" e |] in
      let tape = compile_tape ~partials { Formula.expr = e; rel = Formula.Le0 } in
      let box () =
        [|
          Interval.make (Rng.uniform rng (-3.0) 0.0) (Rng.uniform rng 0.0 3.0);
          Interval.make (Rng.uniform rng (-3.0) 0.0) (Rng.uniform rng 0.0 3.0);
        |]
      in
      let d = box () and other = box () in
      let fused = Tape.make_buffers tape and split = Tape.make_buffers tape in
      let root = Tape.forward_all tape fused d in
      ignore (Tape.forward_all tape split other : Interval.t);
      let root' = Tape.forward tape split d in
      Tape.forward_partials tape split d;
      Interval.equal root root'
      && List.for_all
           (fun i -> Interval.equal (Tape.partial_ival tape fused i) (Tape.partial_ival tape split i))
           [ 0; 1 ])

(* The enclosure a [revise] leaves in its buffers, which the solver reads
   instead of sweeping again when no domain changed, is a fresh forward
   sweep of the domains the revise started from, bit for bit; a revise that
   narrows nothing leaves every domain element physically in place, which
   is what lets the solver see that. *)
let prop_revise_leaves_forward =
  QCheck.Test.make ~name:"revise leaves the forward enclosure of its domains" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let e = gen_expr rng 4 in
      let rel = if Rng.int rng 4 = 0 then Formula.Eq0 else Formula.Le0 in
      let tape = compile_tape { Formula.expr = e; rel } in
      let bound () = Rng.uniform rng (-3.0) 3.0 in
      let d =
        Array.init 2 (fun _ ->
            let a = bound () and c = bound () in
            Interval.make (Float.min a c) (Float.max a c))
      in
      let before = Array.copy d in
      let b = Tape.make_buffers tape in
      let changed = match Tape.revise tape b d with c -> c | exception Tape.Empty_box -> true in
      let bits i =
        if Interval.is_empty i then None
        else Some (Int64.bits_of_float (Interval.lo i), Int64.bits_of_float (Interval.hi i))
      in
      bits (Tape.atom_ival tape b) = bits (Tape.forward tape (Tape.make_buffers tape) before)
      && (changed || Array.for_all2 ( == ) d before))

(* --- Rounding kernels and edge containment ------------------------------ *)

(* The tape's fmin/fmax are Float.min/Float.max bit for bit; which NaN a NaN
   operand gives is not compared ([Edge_floats.same_bits]). *)
let same_min_max x y =
  Edge_floats.same_bits (Tape.fmin x y) (Float.min x y)
  && Edge_floats.same_bits (Tape.fmax x y) (Float.max x y)

let test_min_max_specials () =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if not (same_min_max x y) then
            Alcotest.failf "fmin/fmax (%h, %h) differ from Float.min/Float.max" x y)
        Edge_floats.specials)
    Edge_floats.specials

let prop_min_max_bits =
  QCheck.Test.make ~name:"fmin/fmax = Float.min/Float.max on raw bit patterns" ~count:2000
    (QCheck.pair Edge_floats.arb_bits Edge_floats.arb_bits)
    (fun (x, y) -> same_min_max x y && same_min_max x x && same_min_max x (-.x))

(* The tape keeps its own copy of Interval's rounding kernels.  A one-node
   x + 0 tape exposes them as [down (x + 0), up (x + 0)]; test_interval
   checks Interval's copy against the same guarded nextafter.  NaN cannot
   be a domain endpoint, so it comes from inf + -inf, which the tape reports
   as an empty enclosure. *)
let tape_rounds_like_nextafter =
  let plus c =
    let tape = compile_tape { Formula.expr = Expr.Add (x, Expr.Const c); rel = Formula.Le0 } in
    let b = Tape.make_buffers tape in
    fun v -> Tape.forward tape b [| Interval.of_float v; Interval.of_float v |]
  in
  let plus_zero = plus 0.0 and plus_neg_inf = plus neg_infinity in
  fun v ->
    if Float.is_nan v then Interval.is_empty (plus_neg_inf infinity)
    else Edge_floats.is_rounded_sum (plus_zero v) v

let test_tape_rounding_sweep () =
  List.iter
    (fun v ->
      if not (tape_rounds_like_nextafter v) then
        Alcotest.failf "x + 0 at x = %h is not the guarded pred/succ" v)
    Edge_floats.sweep

let prop_tape_rounding_bits =
  QCheck.Test.make ~name:"tape down/up = guarded pred/succ on raw bit patterns" ~count:2000
    Edge_floats.arb_bits tape_rounds_like_nextafter

let prop_tape_edge_containment =
  List.map
    (fun (name, op, expr_op, f) ->
      let tape = compile_tape { Formula.expr = expr_op x; rel = Formula.Le0 } in
      let b = Tape.make_buffers tape in
      QCheck.Test.make
        ~name:("tape " ^ name ^ " encloses at subnormal, huge and infinite inputs")
        ~count:500 Edge_floats.arb_edge_case (fun case ->
          let i = Edge_floats.edge_interval case in
          let r = Tape.forward tape b [| i; i |] in
          Interval.equal r (op i)
          && List.for_all (Edge_floats.contains_image f r) (Edge_floats.points_in i case)))
    Edge_floats.kernels

(* --- NN export --------------------------------------------------------- *)

let test_nn_tape_parity () =
  (* The exported width-10 controller: point evaluation and interval
     forward through the tape agree with the tree on random points/boxes. *)
  let net = Error_dynamics.controller_of_width 10 in
  let e = Error_dynamics.symbolic_controller net in
  let index_of v = if String.equal v Error_dynamics.var_derr then 0 else 1 in
  let tape = Tape.compile ~index_of { Formula.expr = e; rel = Formula.Le0 } in
  let b = Tape.make_buffers tape in
  let rng = Rng.create 42 in
  for _ = 1 to 100 do
    let d = Rng.uniform rng (-5.0) 5.0 and t = Rng.uniform rng (-1.5) 1.5 in
    let tree = Expr.eval_env [ (Error_dynamics.var_derr, d); (Error_dynamics.var_theta_err, t) ] e in
    let tv = Tape.eval_point tape b [| d; t |] in
    if not (Int64.equal (Int64.bits_of_float tree) (Int64.bits_of_float tv)) then
      Alcotest.failf "point eval diverges at (%g, %g): %h vs %h" d t tree tv
  done;
  for _ = 1 to 50 do
    let lo = Rng.uniform rng (-5.0) 0.0 in
    let dd = Interval.make lo (Rng.uniform rng lo 5.0) in
    let lo2 = Rng.uniform rng (-1.5) 0.0 in
    let tt = Interval.make lo2 (Rng.uniform rng lo2 1.5) in
    let tree =
      Expr.ieval (fun v -> if String.equal v Error_dynamics.var_derr then dd else tt) e
    in
    let tv = Tape.forward tape b [| dd; tt |] in
    if not (Interval.equal tree tv) then
      Alcotest.failf "interval eval diverges: %s vs %s" (Interval.to_string tree)
        (Interval.to_string tv)
  done;
  (* CSE must make the compiled program strictly smaller than the tree. *)
  Alcotest.(check bool) "tape smaller than tree" true (Tape.node_count tape < Expr.size e)

(* --- Solver integration ------------------------------------------------ *)

let circle_conjunction =
  Formula.and_
    [
      Formula.le (Expr.( + ) (Expr.pow x 2) (Expr.pow y 2)) (Expr.const 1.0);
      Formula.ge (Expr.( + ) x y) (Expr.const 1.6);
    ]

let bounds2 = [ ("x", -2.0, 2.0); ("y", -2.0, 2.0) ]

let test_compile_once_per_disjunct () =
  (* The solver compiles each disjunct's atoms once per solve call;
     parallel search must not add per-task compiles (tasks share the tapes
     and only allocate buffers). *)
  let compiles_for jobs =
    let before = Tape.compile_count () in
    let options = { Solver.default_options with Solver.jobs } in
    ignore (Solver.solve ~options ~bounds:bounds2 circle_conjunction);
    Tape.compile_count () - before
  in
  let seq = compiles_for 1 in
  let par = compiles_for 4 in
  Alcotest.(check int) "one compile per atom (2 atoms, 1 disjunct)" 2 seq;
  Alcotest.(check int) "parallel adds no compiles" seq par

(* The tape search and the diverse walk agree, at jobs 1 and 4: an Unsat
   search's recorded cover refines, and its refinement closes under the
   walk over [Expr] trees as under the tape walk; a witness δ-holds. *)
let check_engines_agree name bounds f =
  List.iter
    (fun jobs ->
      let label what = Printf.sprintf "%s (jobs=%d): %s" name jobs what in
      let p =
        Solver.prepare
          ~options:{ Solver.default_options with Solver.jobs }
          ~vars:(List.map (fun (v, _, _) -> v) bounds)
          f
      in
      match Solver.solve_prepared ~record:true p ~bounds with
      | Solver.Unsat, st -> (
        match Solver.refine p ~bounds (Option.get st.Solver.cover) with
        | None -> Alcotest.fail (label "the recorded cover does not refine")
        | Some refined ->
          List.iter
            (fun diverse ->
              let v, walk = Solver.replay ~diverse p ~bounds refined in
              Alcotest.(check (pair bool int))
                (label (if diverse then "Expr walk closes" else "tape walk closes"))
                (true, 0)
                (v = Solver.Unsat, walk.Solver.hc4_calls))
            [ true; false ])
      | Solver.Delta_sat w, _ ->
        Alcotest.(check bool) (label "witness delta-holds") true (Formula.holds_delta 1e-2 w f)
      | Solver.Unknown, _ -> Alcotest.fail (label "search undecided"))
    [ 1; 4 ]

let test_engine_agreement_formulas () =
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
  let trig = Formula.eq (Expr.sin x) (Expr.const 0.5) in
  let tanh_unsat = Formula.gt (Expr.tanh x) (Expr.const 1.01) in
  check_engines_agree "circle unsat" bounds2 circle_conjunction;
  check_engines_agree "circle sat" bounds2 circle_sat;
  check_engines_agree "disjunction" [ ("x", -2.0, 2.0) ] disjunct_unsat;
  check_engines_agree "trig root" [ ("x", 0.0, 1.5707) ] trig;
  check_engines_agree "tanh bound" [ ("x", -100.0, 100.0) ] tanh_unsat

let test_engine_agreement_dubins () =
  (* Smoke-sized Dubins barrier queries (the stealing timing gate's smoke
     setup): conditions (5), (6) and (7), decided by the tape search and
     checked by both walks at jobs 1 and 4. *)
  let net = Error_dynamics.reference_controller in
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let config =
    { Engine.default_config with Engine.safe_rect = [| (-1.2, 1.2); (-0.6, 0.6) |] }
  in
  let template = Template.make Template.Quadratic system.Engine.vars in
  let cert = { Engine.template; coeffs = [| 1.0; 0.5; 2.0 |]; level = 0.0 } in
  let bounds =
    Array.to_list
      (Array.mapi
         (fun i v -> (v, fst config.Engine.safe_rect.(i), snd config.Engine.safe_rect.(i)))
         system.Engine.vars)
  in
  List.iter
    (fun (name, f) -> check_engines_agree name bounds f)
    [
      ("condition5", Engine.condition5_formula system config cert);
      ("condition6", Engine.condition6_formula cert);
      ("condition7", Engine.condition7_formula cert);
    ]

let () =
  Alcotest.run "tape"
    [
      ( "dag",
        [
          Alcotest.test_case "cse dedup" `Quick test_dag_cse;
          Alcotest.test_case "topological ids" `Quick test_dag_topological;
          Alcotest.test_case "signed zeros distinct" `Quick test_dag_zero_signs_distinct;
          Alcotest.test_case "partials share primal" `Quick test_dag_partials_share_primal;
        ] );
      ( "tape",
        [
          QCheck_alcotest.to_alcotest prop_point_eval_parity;
          QCheck_alcotest.to_alcotest prop_interval_eval_parity;
          QCheck_alcotest.to_alcotest prop_tape_revise_sound;
          QCheck_alcotest.to_alcotest prop_tape_at_least_as_tight;
          QCheck_alcotest.to_alcotest prop_forward_partials_parity;
          QCheck_alcotest.to_alcotest prop_revise_leaves_forward;
          Alcotest.test_case "nn export parity" `Quick test_nn_tape_parity;
        ] );
      ( "rounding",
        Alcotest.test_case "down/up = guarded pred/succ at every exponent" `Quick
          test_tape_rounding_sweep
        :: Alcotest.test_case "fmin/fmax = Float.min/Float.max at every edge pair" `Quick
             test_min_max_specials
        :: List.map QCheck_alcotest.to_alcotest
             (prop_tape_rounding_bits :: prop_min_max_bits :: prop_tape_edge_containment) );
      ( "solver",
        [
          Alcotest.test_case "compile once per disjunct" `Quick test_compile_once_per_disjunct;
          Alcotest.test_case "engine agreement (formulas)" `Quick test_engine_agreement_formulas;
          Alcotest.test_case "engine agreement (dubins)" `Slow test_engine_agreement_dubins;
        ] );
    ]
