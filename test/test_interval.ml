(* Tests for interval arithmetic, including the soundness property the
   δ-SAT solver relies on: interval operations enclose all point images. *)

let icheck name expected actual =
  Alcotest.(check bool)
    (name ^ ": " ^ Interval.to_string actual ^ " vs " ^ Interval.to_string expected)
    true (Interval.equal expected actual)

let contains name i x =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.17g in %s" name x (Interval.to_string i))
    true (Interval.mem x i)

(* --- construction & set ops ------------------------------------------ *)

let test_make () =
  let i = Interval.make 1.0 2.0 in
  Alcotest.(check (float 0.0)) "lo" 1.0 (Interval.lo i);
  Alcotest.(check (float 0.0)) "hi" 2.0 (Interval.hi i);
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi") (fun () ->
      ignore (Interval.make 2.0 1.0));
  Alcotest.check_raises "nan" (Invalid_argument "Interval.make: NaN endpoint") (fun () ->
      ignore (Interval.make Float.nan 1.0))

let test_empty () =
  Alcotest.(check bool) "empty is empty" true (Interval.is_empty Interval.empty);
  Alcotest.(check bool) "make not empty" false (Interval.is_empty (Interval.make 0.0 1.0));
  Alcotest.(check bool) "mem in empty" false (Interval.mem 0.0 Interval.empty);
  Alcotest.(check (float 0.0)) "width of empty" 0.0 (Interval.width Interval.empty)

let test_meet_hull () =
  let a = Interval.make 0.0 2.0 and b = Interval.make 1.0 3.0 in
  icheck "meet" (Interval.make 1.0 2.0) (Interval.meet a b);
  icheck "hull" (Interval.make 0.0 3.0) (Interval.hull a b);
  let c = Interval.make 5.0 6.0 in
  Alcotest.(check bool) "disjoint meet empty" true (Interval.is_empty (Interval.meet a c));
  Alcotest.(check bool) "intersects" true (Interval.intersects a b);
  Alcotest.(check bool) "no intersect" false (Interval.intersects a c);
  icheck "hull with empty" a (Interval.hull a Interval.empty)

let test_subset () =
  Alcotest.(check bool) "strict subset" true
    (Interval.subset (Interval.make 1.0 2.0) (Interval.make 0.0 3.0));
  Alcotest.(check bool) "not subset" false
    (Interval.subset (Interval.make 0.0 3.0) (Interval.make 1.0 2.0));
  Alcotest.(check bool) "empty subset of all" true
    (Interval.subset Interval.empty (Interval.make 0.0 1.0));
  Alcotest.(check bool) "self subset" true
    (Interval.subset (Interval.make 0.0 1.0) (Interval.make 0.0 1.0))

let test_split () =
  let l, r = Interval.split (Interval.make 0.0 4.0) in
  Alcotest.(check (float 0.0)) "left hi" 2.0 (Interval.hi l);
  Alcotest.(check (float 0.0)) "right lo" 2.0 (Interval.lo r)

let test_midpoint_infinite () =
  Alcotest.(check bool) "entire midpoint finite" true
    (Float.is_finite (Interval.midpoint Interval.entire));
  Alcotest.(check bool) "half-bounded midpoint finite" true
    (Float.is_finite (Interval.midpoint (Interval.make 0.0 infinity)))

(* --- arithmetic enclosure --------------------------------------------- *)

let test_add_sub () =
  let a = Interval.make 1.0 2.0 and b = Interval.make 3.0 5.0 in
  contains "add lo" (Interval.add a b) 4.0;
  contains "add hi" (Interval.add a b) 7.0;
  contains "sub" (Interval.sub a b) (-4.0);
  contains "sub" (Interval.sub a b) (-1.0)

let test_mul_signs () =
  let cases =
    [
      (Interval.make 2.0 3.0, Interval.make 4.0 5.0, 8.0, 15.0);
      (Interval.make (-3.0) (-2.0), Interval.make 4.0 5.0, -15.0, -8.0);
      (Interval.make (-2.0) 3.0, Interval.make (-4.0) 5.0, -12.0, 15.0);
      (Interval.make (-2.0) 3.0, Interval.make 0.0 0.0, 0.0, 0.0);
    ]
  in
  List.iter
    (fun (a, b, lo, hi) ->
      let p = Interval.mul a b in
      contains "mul lo" p lo;
      contains "mul hi" p hi)
    cases

let test_mul_zero_infinity () =
  let p = Interval.mul (Interval.of_float 0.0) Interval.entire in
  contains "0 * entire contains 0" p 0.0;
  Alcotest.(check bool) "0 * entire not empty" false (Interval.is_empty p)

let test_div () =
  let q = Interval.div (Interval.make 1.0 2.0) (Interval.make 2.0 4.0) in
  contains "plain div lo" q 0.25;
  contains "plain div hi" q 1.0;
  (* Divisor straddles zero: hull of branches. *)
  let q2 = Interval.div (Interval.make 1.0 2.0) (Interval.make (-1.0) 1.0) in
  Alcotest.(check bool) "straddle is entire" true
    (Interval.lo q2 = neg_infinity && Interval.hi q2 = infinity);
  (* Half-open divisor. *)
  let q3 = Interval.div (Interval.make 1.0 2.0) (Interval.make 0.0 1.0) in
  Alcotest.(check bool) "semi-infinite" true (Interval.hi q3 = infinity);
  contains "q3 contains 1" q3 1.0;
  Alcotest.(check bool) "x/0 empty" true
    (Interval.is_empty (Interval.div (Interval.make 1.0 2.0) (Interval.of_float 0.0)))

let test_mul_preimage () =
  (* {x : ∃y ∈ Y, x·y ∈ R}: with 0 in both R and Y every x qualifies,
     where [div R Y] answers {0} or empty. *)
  let entire = Interval.entire in
  icheck "R = {0}, Y straddles 0" entire
    (Interval.mul_preimage (Interval.of_float 0.0) (Interval.make (-1.0) 1.0));
  icheck "0 in R, Y = {0}" entire
    (Interval.mul_preimage (Interval.make (-1.0) 1.0) (Interval.of_float 0.0));
  Alcotest.(check bool) "0 not in R, Y = {0}: empty" true
    (Interval.is_empty (Interval.mul_preimage (Interval.make 1.0 2.0) (Interval.of_float 0.0)));
  let q = Interval.mul_preimage (Interval.make 2.0 4.0) (Interval.make 1.0 2.0) in
  contains "plain quotient lo" q 1.0;
  contains "plain quotient hi" q 4.0

let test_sqr_pow () =
  let s = Interval.sqr (Interval.make (-2.0) 3.0) in
  contains "sqr contains 0" s 0.0;
  contains "sqr contains 9" s 9.0;
  Alcotest.(check bool) "sqr lo" true (Interval.lo s >= 0.0);
  let p3 = Interval.pow (Interval.make (-2.0) 1.0) 3 in
  contains "odd pow" p3 (-8.0);
  contains "odd pow" p3 1.0;
  let p0 = Interval.pow (Interval.make (-2.0) 1.0) 0 in
  icheck "pow 0" (Interval.of_float 1.0) p0;
  let pneg = Interval.pow (Interval.make 2.0 4.0) (-1) in
  contains "pow -1" pneg 0.5;
  contains "pow -1" pneg 0.25

let test_abs_min_max () =
  let a = Interval.abs (Interval.make (-3.0) 2.0) in
  contains "abs 0" a 0.0;
  contains "abs 3" a 3.0;
  let m = Interval.min_i (Interval.make 0.0 5.0) (Interval.make 2.0 3.0) in
  contains "min" m 0.0;
  contains "min" m 3.0;
  let m = Interval.max_i (Interval.make 0.0 5.0) (Interval.make 2.0 3.0) in
  contains "max" m 2.0;
  contains "max" m 5.0

(* --- transcendental --------------------------------------------------- *)

let test_exp_log () =
  let e = Interval.exp (Interval.make 0.0 1.0) in
  contains "exp 1" e 1.0;
  contains "exp e" e (Float.exp 1.0);
  let l = Interval.log (Interval.make 1.0 (Float.exp 2.0)) in
  contains "log 0" l 0.0;
  contains "log 2" l 2.0;
  Alcotest.(check bool) "log of negative empty" true
    (Interval.is_empty (Interval.log (Interval.make (-2.0) (-1.0))));
  Alcotest.(check bool) "log spanning 0 has -inf lo" true
    (Interval.lo (Interval.log (Interval.make 0.0 1.0)) = neg_infinity)

let test_sin_branches () =
  (* Monotone stretch. *)
  let s = Interval.sin (Interval.make 0.0 1.0) in
  contains "sin 0" s 0.0;
  contains "sin 1" s (Float.sin 1.0);
  Alcotest.(check bool) "hi below 1" true (Interval.hi s < 1.0);
  (* Contains the max at pi/2. *)
  let s = Interval.sin (Interval.make 1.0 2.0) in
  contains "sin max" s 1.0;
  (* Contains the min at -pi/2. *)
  let s = Interval.sin (Interval.make (-2.0) (-1.0)) in
  contains "sin min" s (-1.0);
  (* Full period. *)
  let s = Interval.sin (Interval.make 0.0 10.0) in
  icheck "full period" (Interval.make (-1.0) 1.0) s

let test_cos_branches () =
  let c = Interval.cos (Interval.make (-0.5) 0.5) in
  contains "cos max" c 1.0;
  Alcotest.(check bool) "cos lo" true (Interval.lo c <= Float.cos 0.5);
  let c = Interval.cos (Interval.make 3.0 3.5) in
  contains "cos min" c (-1.0);
  let c = Interval.cos (Interval.make 0.5 1.0) in
  contains "monotone" c (Float.cos 0.75)

let test_tanh_sigmoid_atan () =
  let t = Interval.tanh (Interval.make (-1.0) 2.0) in
  contains "tanh lo" t (Float.tanh (-1.0));
  contains "tanh hi" t (Float.tanh 2.0);
  Alcotest.(check bool) "tanh bounded" true (Interval.lo t >= -1.0 && Interval.hi t <= 1.0);
  let s = Interval.sigmoid (Interval.make (-100.0) 100.0) in
  Alcotest.(check bool) "sigmoid in [0,1]" true (Interval.lo s >= 0.0 && Interval.hi s <= 1.0);
  contains "sigmoid mid" s 0.5;
  let a = Interval.atan (Interval.make (-1.0) 1.0) in
  contains "atan" a (Float.atan 0.5);
  Alcotest.(check bool) "atan bounded" true
    (Interval.lo a >= -.Float.pi /. 2.0 && Interval.hi a <= Float.pi /. 2.0)

let test_sqrt () =
  let s = Interval.sqrt (Interval.make 4.0 9.0) in
  contains "sqrt 2" s 2.0;
  contains "sqrt 3" s 3.0;
  let s = Interval.sqrt (Interval.make (-1.0) 4.0) in
  contains "clipped sqrt 0" s 0.0;
  contains "clipped sqrt 2" s 2.0;
  Alcotest.(check bool) "sqrt of negative empty" true
    (Interval.is_empty (Interval.sqrt (Interval.make (-2.0) (-1.0))))

let test_inverses () =
  let a = Interval.asin (Interval.of_float 0.5) in
  contains "asin" a (Float.asin 0.5);
  let a = Interval.acos (Interval.make 0.0 1.0) in
  contains "acos 0" a (Float.pi /. 2.0);
  contains "acos 1" a 0.0;
  let a = Interval.atanh (Interval.of_float 0.5) in
  contains "atanh" a 0.5493061443340548;
  Alcotest.(check bool) "atanh at 1 unbounded" true
    (Interval.hi (Interval.atanh (Interval.make 0.5 1.0)) = infinity);
  let l = Interval.logit (Interval.of_float 0.5) in
  contains "logit 0.5 = 0" l 0.0;
  let t = Interval.tan_principal (Interval.make (-0.5) 0.5) in
  contains "tan" t (Float.tan 0.3)

(* --- soundness properties -------------------------------------------- *)

let sample_in rng i =
  let lo = Float.max (Interval.lo i) (-1e6) and hi = Float.min (Interval.hi i) 1e6 in
  Rng.uniform rng lo hi

let gen_interval =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%g, %g)" a b)
    QCheck.Gen.(pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0))

let mk (a, b) = Interval.make (Float.min a b) (Float.max a b)

let binary_sound name op f =
  QCheck.Test.make ~name ~count:300
    QCheck.(pair gen_interval gen_interval)
    (fun (p1, p2) ->
      let i1 = mk p1 and i2 = mk p2 in
      let rng = Rng.create 9 in
      let ok = ref true in
      for _ = 1 to 20 do
        let x = sample_in rng i1 and y = sample_in rng i2 in
        let z = f x y in
        if Float.is_finite z && not (Interval.mem z (op i1 i2)) then ok := false
      done;
      !ok)

let unary_sound name op f =
  QCheck.Test.make ~name ~count:300 gen_interval (fun p ->
      let i = mk p in
      let rng = Rng.create 13 in
      let ok = ref true in
      for _ = 1 to 20 do
        let x = sample_in rng i in
        let z = f x in
        if Float.is_finite z && not (Interval.mem z (op i)) then ok := false
      done;
      !ok)

let prop_add = binary_sound "add encloses" Interval.add ( +. )

let prop_sub = binary_sound "sub encloses" Interval.sub ( -. )

let prop_mul = binary_sound "mul encloses" Interval.mul ( *. )

let prop_div = binary_sound "div encloses" Interval.div ( /. )

let prop_sin = unary_sound "sin encloses" Interval.sin Float.sin

let prop_cos = unary_sound "cos encloses" Interval.cos Float.cos

let prop_exp = unary_sound "exp encloses" Interval.exp Float.exp

let prop_tanh = unary_sound "tanh encloses" Interval.tanh Float.tanh

let prop_sqr = unary_sound "sqr encloses" Interval.sqr (fun x -> x *. x)

let prop_abs = unary_sound "abs encloses" Interval.abs Float.abs

let prop_atan = unary_sound "atan encloses" Interval.atan Float.atan

let prop_sigmoid =
  unary_sound "sigmoid encloses" Interval.sigmoid (fun x -> 1.0 /. (1.0 +. Float.exp (-.x)))

let prop_inverse_roundtrips =
  (* Monotone inverse pairs: f(finv(y)) re-encloses y up to the compounded
     rounding of two transcendental evaluations (each op's envelope covers
     its own libm error, not the composition's). *)
  QCheck.Test.make ~name:"atanh/asin/logit invert their functions" ~count:300
    QCheck.(float_range (-0.99) 0.99)
    (fun v ->
      let pt = Interval.of_float v in
      let near i = Interval.intersects i (Interval.make (v -. 1e-9) (v +. 1e-9)) in
      near (Interval.tanh (Interval.atanh pt))
      && near (Interval.sin (Interval.asin pt))
      && (v <= 0.0 || v >= 1.0 || near (Interval.sigmoid (Interval.logit pt))))

let prop_inverse_keeps_preimage =
  (* Tight twin of the round trip above: x ∈ finv(f({x})) with no slack,
     at every magnitude.  HC4 projects through tanh and sigmoid with these
     inverses, so a miss of one ulp removes a solution. *)
  QCheck.Test.make ~name:"atanh/logit keep every preimage" ~count:500
    QCheck.(pair (float_range (-12.0) 1.3) bool)
    (fun (e, neg) ->
      let v = if neg then -.(10.0 ** e) else 10.0 ** e in
      let pt = Interval.of_float v in
      Interval.mem v (Interval.atanh (Interval.tanh pt))
      && Interval.mem v (Interval.logit (Interval.sigmoid pt)))

let prop_pow_neg_matches_inv =
  QCheck.Test.make ~name:"pow (-n) = inv (pow n) pointwise" ~count:200
    QCheck.(pair (float_range 0.5 4.0) (int_range 1 4))
    (fun (v, n) ->
      let i = Interval.of_float v in
      let direct = Interval.pow i (-n) in
      Interval.mem (v ** float_of_int (-n)) direct)

(* [x^n] as an unevaluated double-double sum (hi + lo), each product
   error-free through [Float.fma]: ~100 bits, enough to place it on one
   side of a float that libm's [**] cannot resolve. *)
let dd_pow x n =
  let h = ref x and l = ref 0.0 in
  for _ = 2 to n do
    let p = !h *. x in
    let e = Float.fma !h x (-.p) +. (!l *. x) in
    let s = p +. e in
    h := s;
    l := e -. (s -. p)
  done;
  (!h, !l)

let dd_le (h, l) b = h < b || (h = b && l <= 0.0)

let dd_ge (h, l) b = h > b || (h = b && l >= 0.0)

let prop_root_contains =
  (* The HC4 projection of x^n: root [b, b] = [lo, hi] with lo ≤ ⁿ√b ≤ hi
     in the reals, checked as lo^n ≤ b ≤ hi^n in double-double, from
     1e-300 to 1e300 (negative b for odd n), and never more than 2^-40
     relative wide. *)
  QCheck.Test.make ~name:"root contains the real n-th root" ~count:1000
    QCheck.(
      triple (oneofl [ 2; 3; 5; 7 ]) (float_range (-300.0) 300.0)
        (pair (float_range 1.0 10.0) bool))
    (fun (n, e, (m, neg)) ->
      let b = m *. (10.0 ** e) in
      let b = if neg && n mod 2 = 1 then -.b else b in
      let r = Interval.root (Interval.of_float b) n in
      let lo = Interval.lo r and hi = Interval.hi r in
      dd_le (dd_pow lo n) b
      && dd_ge (dd_pow hi n) b
      && hi -. lo <= Float.abs hi *. (2.0 ** -40.0))

let prop_hull_is_upper_bound =
  QCheck.Test.make ~name:"hull contains both arguments" ~count:300
    QCheck.(pair gen_interval gen_interval)
    (fun (p1, p2) ->
      let a = mk p1 and b = mk p2 in
      let h = Interval.hull a b in
      Interval.subset a h && Interval.subset b h)

let prop_width_monotone_under_meet =
  QCheck.Test.make ~name:"meet never widens" ~count:300
    QCheck.(pair gen_interval gen_interval)
    (fun (p1, p2) ->
      let a = mk p1 and b = mk p2 in
      let m = Interval.meet a b in
      Interval.is_empty m
      || (Interval.width m <= Interval.width a +. 1e-12
         && Interval.width m <= Interval.width b +. 1e-12))

let prop_meet_correct =
  QCheck.Test.make ~name:"meet keeps exactly common points" ~count:300
    QCheck.(triple gen_interval gen_interval (float_range (-60.0) 60.0))
    (fun (p1, p2, x) ->
      let i1 = mk p1 and i2 = mk p2 in
      Interval.mem x (Interval.meet i1 i2) = (Interval.mem x i1 && Interval.mem x i2))

let prop_split_covers =
  QCheck.Test.make ~name:"split covers the interval" ~count:300
    QCheck.(pair gen_interval (float_range 0.0 1.0))
    (fun (p, t) ->
      let i = mk p in
      let x = Interval.lo i +. (t *. (Interval.hi i -. Interval.lo i)) in
      let l, r = Interval.split i in
      Interval.mem x l || Interval.mem x r)

(* --- outward rounding and edge containment ---------------------------- *)

(* The rounding kernels are internal; [add x [0, 0]] exposes them as
   [down (x + 0), up (x + 0)].  NaN cannot be an endpoint, so it comes from
   inf + -inf. *)
let rounded x =
  if Float.is_nan x then
    Interval.add (Interval.of_float infinity) (Interval.of_float neg_infinity)
  else Interval.add (Interval.of_float x) (Interval.of_float 0.0)

let rounds_like_nextafter x = Edge_floats.is_rounded_sum (rounded x) x

let test_rounding_sweep () =
  List.iter
    (fun x ->
      if not (rounds_like_nextafter x) then
        Alcotest.failf "add %h [0, 0] = %s, not the guarded pred/succ" x
          (Interval.to_string (rounded x)))
    Edge_floats.sweep

let prop_rounding_bits =
  QCheck.Test.make ~name:"down/up = guarded pred/succ on raw bit patterns" ~count:2000
    Edge_floats.arb_bits rounds_like_nextafter

let prop_edge_containment =
  List.map
    (fun (name, op, _, f) ->
      QCheck.Test.make ~name:(name ^ " encloses at subnormal, huge and infinite inputs")
        ~count:500 Edge_floats.arb_edge_case (fun case ->
          let i = Edge_floats.edge_interval case in
          List.for_all (Edge_floats.contains_image f (op i)) (Edge_floats.points_in i case)))
    Edge_floats.kernels

let () =
  Alcotest.run "interval"
    [
      ( "construction",
        [
          Alcotest.test_case "make" `Quick test_make;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "meet/hull" `Quick test_meet_hull;
          Alcotest.test_case "subset" `Quick test_subset;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "infinite midpoints" `Quick test_midpoint_infinite;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul sign cases" `Quick test_mul_signs;
          Alcotest.test_case "mul with zero and infinity" `Quick test_mul_zero_infinity;
          Alcotest.test_case "division cases" `Quick test_div;
          Alcotest.test_case "product preimage" `Quick test_mul_preimage;
          Alcotest.test_case "sqr/pow" `Quick test_sqr_pow;
          Alcotest.test_case "abs/min/max" `Quick test_abs_min_max;
        ] );
      ( "rounding",
        Alcotest.test_case "down/up = guarded pred/succ at every exponent" `Quick
          test_rounding_sweep
        :: List.map QCheck_alcotest.to_alcotest (prop_rounding_bits :: prop_edge_containment) );
      ( "transcendental",
        [
          Alcotest.test_case "exp/log" `Quick test_exp_log;
          Alcotest.test_case "sin branches" `Quick test_sin_branches;
          Alcotest.test_case "cos branches" `Quick test_cos_branches;
          Alcotest.test_case "tanh/sigmoid/atan" `Quick test_tanh_sigmoid_atan;
          Alcotest.test_case "sqrt" `Quick test_sqrt;
          Alcotest.test_case "inverse functions" `Quick test_inverses;
        ] );
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add;
            prop_sub;
            prop_mul;
            prop_div;
            prop_sin;
            prop_cos;
            prop_exp;
            prop_tanh;
            prop_sqr;
            prop_abs;
            prop_atan;
            prop_sigmoid;
            prop_meet_correct;
            prop_split_covers;
            prop_inverse_roundtrips;
            prop_inverse_keeps_preimage;
            prop_pow_neg_matches_inv;
            prop_root_contains;
            prop_hull_is_upper_bound;
            prop_width_monotone_under_meet;
          ] );
    ]
