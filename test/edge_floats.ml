(* Float inputs at the edges of binary64, shared by the outward-rounding and
   edge-containment tests of test_interval and test_tape. *)

(* The guarded nextafter that outward rounding must equal bit for bit. *)
let ref_down x = if x = neg_infinity || Float.is_nan x then x else Float.pred x

let ref_up x = if x = infinity || Float.is_nan x then x else Float.succ x

let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

(* [r] is [down (x + 0), up (x + 0)], bit for bit. *)
let is_rounded_sum r x =
  same_bits (Interval.lo r) (ref_down (x +. 0.0))
  && same_bits (Interval.hi r) (ref_up (x +. 0.0))

(* Two neighbours either side of 2^-969 (where the multiply-add kernel
   takes over) and of max_float; 0, inf and the smallest subnormal. *)
let edge_magnitudes =
  let near c =
    [ Float.pred (Float.pred c); Float.pred c; c; Float.succ c; Float.succ (Float.succ c) ]
  in
  near 0x1p-969 @ near max_float @ [ 0.0; infinity; Float.succ 0.0 ]

let with_signs pos = (Float.nan :: pos) @ List.map Float.neg pos

(* Every binary exponent from -1074 to 1023 with the mantissas 1, 1+ulp,
   1+2ulp, 2-ulp and 2-2ulp, and the edge magnitudes; all of it with both
   signs, and NaN. *)
let sweep =
  let u = epsilon_float in
  let mantissas = [ 1.0; 1.0 +. u; 1.0 +. (2.0 *. u); 2.0 -. u; 2.0 -. (2.0 *. u) ] in
  with_signs
    (List.concat_map
       (fun e -> List.map (fun m -> Float.ldexp m e) mantissas)
       (List.init 2098 (fun i -> i - 1074))
    @ edge_magnitudes)

(* The edge magnitudes, the largest subnormal, the smallest normal and 1,
   with both signs, and NaN: few enough to take every pair of. *)
let specials = with_signs (edge_magnitudes @ [ Float.pred 0x1p-1022; 0x1p-1022; 1.0 ])

(* Raw 64-bit patterns, so every exponent (and NaN) is equally likely. *)
let arb_bits = QCheck.make ~print:(Printf.sprintf "%h") QCheck.Gen.(map Int64.float_of_bits int64)

(* A float near an edge: subnormal (or 0), straddling 2^-969, huge,
   max_float, inf, or an ordinary value for contrast; either sign. *)
let gen_edge =
  QCheck.Gen.(
    let+ neg = bool
    and+ mag =
      oneof
        [
          map (fun b -> Int64.float_of_bits (Int64.logand b 0xF_FFFF_FFFF_FFFFL)) int64;
          map (fun m -> Float.ldexp m (-969)) (float_range 0.5 2.0);
          map2 Float.ldexp (float_range 1.0 2.0) (int_range 900 1023);
          oneofl [ 0.0; max_float; infinity ];
          float_range 0.0 50.0;
        ]
    in
    if neg then -.mag else mag)

(* An interval between two edge floats and a third edge float to probe
   it with. *)
let arb_edge_case =
  QCheck.make
    ~print:(fun (a, b, c) -> Printf.sprintf "[%h, %h] probed at %h" a b c)
    QCheck.Gen.(triple gen_edge gen_edge gen_edge)

let edge_interval (a, b, _) = Interval.make (Float.min a b) (Float.max a b)

(* Points of [i]: both endpoints, the probe clamped into it, and a convex
   combination of the endpoints (NaN when they are -inf and inf). *)
let points_in i (_, _, c) =
  let lo = Interval.lo i and hi = Interval.hi i in
  let clamp x = Float.min hi (Float.max lo x) in
  List.filter
    (fun x -> not (Float.is_nan x))
    [ lo; hi; clamp c; clamp ((0.25 *. lo) +. (0.75 *. hi)) ]

let sigmoid x = 1.0 /. (1.0 +. Float.exp (-.x))

(* The forward kernels whose containment the edge tests check, with their
   point functions. *)
let kernels =
  [
    ("sin", Interval.sin, Expr.sin, Float.sin);
    ("cos", Interval.cos, Expr.cos, Float.cos);
    ("exp", Interval.exp, Expr.exp, Float.exp);
    ("tanh", Interval.tanh, Expr.tanh, Float.tanh);
    ("atan", Interval.atan, Expr.atan, Float.atan);
    ("sigmoid", Interval.sigmoid, Expr.sigmoid, sigmoid);
  ]

(* [f x] lies in [r], or has no value (NaN, as sin and cos at infinity). *)
let contains_image f r x =
  let z = f x in
  Float.is_nan z || Interval.mem z r
