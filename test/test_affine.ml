(* Tests for affine arithmetic: exactness of linear cancellation, soundness
   of nonlinear linearizations, and tightness vs plain intervals. *)

let ival lo hi = Interval.make lo hi

let test_linear_cancellation () =
  let ctx = Affine.context () in
  let x = Affine.of_interval ctx (ival (-1.0) 1.0) in
  let z = Affine.sub x x in
  (* x - x must be (essentially) exactly zero — the whole point. *)
  Alcotest.(check bool) "x - x is ~0" true (Affine.radius z < 1e-12);
  (* In plain intervals, the same computation has width 4. *)
  let iz = Interval.sub (ival (-1.0) 1.0) (ival (-1.0) 1.0) in
  Alcotest.(check bool) "interval version is wide" true (Interval.width iz >= 4.0)

let test_add_sub_exact () =
  let ctx = Affine.context () in
  let x = Affine.of_interval ctx (ival 0.0 2.0) in
  let y = Affine.of_interval ctx (ival 1.0 3.0) in
  let s = Affine.add x y in
  let i = Affine.to_interval s in
  Alcotest.(check bool) "sum lower" true (Interval.lo i <= 1.0 +. 1e-9);
  Alcotest.(check bool) "sum upper" true (Interval.hi i >= 5.0 -. 1e-9);
  Alcotest.(check bool) "sum tight" true (Interval.width i < 4.0 +. 1e-6)

let test_scale () =
  let ctx = Affine.context () in
  let x = Affine.of_interval ctx (ival (-1.0) 3.0) in
  let y = Affine.scale (-2.0) x in
  let i = Affine.to_interval y in
  Alcotest.(check bool) "scaled range" true (Interval.lo i <= -6.0 +. 1e-9 && Interval.hi i >= 2.0 -. 1e-9)

(* Soundness: sampling the inputs must always land inside the affine
   enclosure of the output. *)
let sound_unary name aop fop lo hi =
  QCheck.Test.make ~name ~count:200
    QCheck.(pair (float_range lo hi) (float_range lo hi))
    (fun (a, b) ->
      let lo' = Float.min a b and hi' = Float.max a b in
      let ctx = Affine.context () in
      let x = Affine.of_interval ctx (ival lo' hi') in
      let y = aop x in
      let iy = Affine.to_interval y in
      let ok = ref true in
      for k = 0 to 20 do
        let v = lo' +. (float_of_int k /. 20.0 *. (hi' -. lo')) in
        if not (Interval.mem (fop v) iy) then ok := false
      done;
      !ok)

let prop_tanh_sound = sound_unary "tanh affine sound" Affine.tanh Float.tanh (-4.0) 4.0

let prop_sin_sound = sound_unary "sin affine sound" Affine.sin Float.sin (-6.0) 6.0

let prop_cos_sound = sound_unary "cos affine sound" Affine.cos Float.cos (-6.0) 6.0

let prop_exp_sound = sound_unary "exp affine sound" Affine.exp Float.exp (-3.0) 3.0

let prop_sigmoid_sound =
  sound_unary "sigmoid affine sound" Affine.sigmoid
    (fun v -> 1.0 /. (1.0 +. Float.exp (-.v)))
    (-5.0) 5.0

let prop_sqr_sound =
  sound_unary "sqr affine sound" Affine.sqr (fun v -> v *. v) (-3.0) 3.0

let prop_mul_sound =
  QCheck.Test.make ~name:"mul affine sound" ~count:200
    QCheck.(
      quad (float_range (-3.0) 3.0) (float_range (-3.0) 3.0) (float_range (-3.0) 3.0)
        (float_range (-3.0) 3.0))
    (fun (a, b, c, d) ->
      let xlo = Float.min a b and xhi = Float.max a b in
      let ylo = Float.min c d and yhi = Float.max c d in
      let ctx = Affine.context () in
      let x = Affine.of_interval ctx (ival xlo xhi) in
      let y = Affine.of_interval ctx (ival ylo yhi) in
      let p = Affine.to_interval (Affine.mul x y) in
      let ok = ref true in
      for i = 0 to 6 do
        for j = 0 to 6 do
          let xv = xlo +. (float_of_int i /. 6.0 *. (xhi -. xlo)) in
          let yv = ylo +. (float_of_int j /. 6.0 *. (yhi -. ylo)) in
          if not (Interval.mem (xv *. yv) p) then ok := false
        done
      done;
      !ok)

let prop_expr_eval_sound =
  (* eval_expr over a random NN-flavoured expression encloses point
     evaluation. *)
  QCheck.Test.make ~name:"eval_expr affine sound" ~count:100
    QCheck.(pair (int_range 0 10_000) (pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)))
    (fun (seed, (a, b)) ->
      let lo = Float.min a b and hi = Float.max a b in
      let rng = Rng.create seed in
      let rec gen depth =
        if depth = 0 then
          if Rng.float rng < 0.6 then Expr.var "x" else Expr.const (Rng.uniform rng (-2.0) 2.0)
        else begin
          match Rng.int rng 6 with
          | 0 -> Expr.( + ) (gen (depth - 1)) (gen (depth - 1))
          | 1 -> Expr.( - ) (gen (depth - 1)) (gen (depth - 1))
          | 2 -> Expr.( * ) (gen (depth - 1)) (gen (depth - 1))
          | 3 -> Expr.tanh (gen (depth - 1))
          | 4 -> Expr.sin (gen (depth - 1))
          | _ -> Expr.pow (gen (depth - 1)) 2
        end
      in
      let e = gen 4 in
      let ctx = Affine.context () in
      let form = Affine.of_interval ctx (ival lo hi) in
      let enclosure = Affine.to_interval (Affine.eval_expr ctx (fun _ -> form) e) in
      let ok = ref true in
      for k = 0 to 12 do
        let v = lo +. (float_of_int k /. 12.0 *. (hi -. lo)) in
        let y = Expr.eval (fun _ -> v) e in
        if Float.is_finite y && not (Interval.mem y enclosure) then ok := false
      done;
      !ok)

let test_tighter_than_interval_on_nn () =
  (* On the exported reference controller, affine enclosures should not be
     (much) wider than interval ones, and on the cancellation-heavy
     decrease expression they should be strictly tighter. *)
  let u = Error_dynamics.symbolic_controller Error_dynamics.reference_controller in
  let box v =
    if String.equal v Error_dynamics.var_derr then ival (-1.0) 1.0 else ival (-0.2) 0.2
  in
  let interval_width = Interval.width (Expr.ieval box u) in
  let ctx = Affine.context () in
  let d_form = Affine.of_interval ctx (box Error_dynamics.var_derr) in
  let th_form = Affine.of_interval ctx (box Error_dynamics.var_theta_err) in
  let lookup v = if String.equal v Error_dynamics.var_derr then d_form else th_form in
  let affine_width = Interval.width (Affine.to_interval (Affine.eval_expr ctx lookup u)) in
  Alcotest.(check bool)
    (Printf.sprintf "affine %.4f vs interval %.4f" affine_width interval_width)
    true
    (affine_width <= interval_width *. 1.10);
  (* The dependency-heavy expression u - u: correlations cancel the linear
     part, leaving only the (uncorrelated) tanh linearization error — an
     order of magnitude tighter than intervals, which double the width. *)
  let diff = Expr.( - ) u u in
  let iw = Interval.width (Expr.ieval box diff) in
  let aw = Interval.width (Affine.to_interval (Affine.eval_expr ctx lookup diff)) in
  Alcotest.(check bool) (Printf.sprintf "u-u: affine %.2e vs interval %.2e" aw iw) true (aw < 0.1 *. iw)

let () =
  Alcotest.run "affine"
    [
      ( "linear",
        [
          Alcotest.test_case "cancellation" `Quick test_linear_cancellation;
          Alcotest.test_case "add/sub" `Quick test_add_sub_exact;
          Alcotest.test_case "scale" `Quick test_scale;
        ] );
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_tanh_sound;
            prop_sin_sound;
            prop_cos_sound;
            prop_exp_sound;
            prop_sigmoid_sound;
            prop_sqr_sound;
            prop_mul_sound;
            prop_expr_eval_sound;
          ] );
      ( "tightness",
        [ Alcotest.test_case "nn expressions" `Quick test_tighter_than_interval_on_nn ] );
    ]
