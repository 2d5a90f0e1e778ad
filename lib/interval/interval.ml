type t = { lo : float; hi : float }

let empty = { lo = infinity; hi = neg_infinity }

let entire = { lo = neg_infinity; hi = infinity }

let is_empty i = not (i.lo <= i.hi)

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then invalid_arg "Interval.make: NaN endpoint";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let of_float x =
  if Float.is_nan x then invalid_arg "Interval.of_float: NaN";
  { lo = x; hi = x }

let lo i = i.lo

let hi i = i.hi

(* Outward rounding: one ulp past the computed value in each direction.
   Exact results get widened needlessly, which is sound.

   For |x| in [2^-969, max_float], x -. phi *. |x| and x +. phi *. |x| with
   phi = 2^-53 + 2^-105 round to exactly Float.pred x and Float.succ x in
   round-to-nearest binary64 (Rump, Zimmermann, Boldo & Melquiond,
   "Computing predecessor and successor in rounding to nearest", BIT 49,
   2009): a multiply and an add instead of a nextafter call.  The product
   must be rounded before the add (no FMA contraction; DESIGN.md §6).
   Outside that range (±0, subnormals, the smallest normals, ±inf and NaN)
   the guarded nextafter runs. *)
let phi = 0x1.0000000000001p-53

let[@inline] down x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= max_float then x -. (phi *. a)
  else if x = neg_infinity || Float.is_nan x then x
  else Float.pred x

let[@inline] up x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= max_float then x +. (phi *. a)
  else if x = infinity || Float.is_nan x then x
  else Float.succ x

(* Wider envelope for libm-computed transcendentals (their error is below
   1 ulp on this platform, but that is not formally guaranteed). *)
let wide_down x = down (down (down x))

let wide_up x = up (up (up x))

let width i = if is_empty i then 0.0 else i.hi -. i.lo

let midpoint i =
  if Float.is_finite i.lo && Float.is_finite i.hi then
    let m = 0.5 *. (i.lo +. i.hi) in
    if Float.is_finite m then m else (0.5 *. i.lo) +. (0.5 *. i.hi)
  else if Float.is_finite i.lo then i.lo +. 1e15
  else if Float.is_finite i.hi then i.hi -. 1e15
  else 0.0

let mem x i = (not (is_empty i)) && i.lo <= x && x <= i.hi

let subset a b = is_empty a || ((not (is_empty b)) && b.lo <= a.lo && a.hi <= b.hi)

let intersects a b = (not (is_empty a)) && (not (is_empty b)) && a.lo <= b.hi && b.lo <= a.hi

let meet a b =
  if is_empty a || is_empty b then empty
  else begin
    let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
    if lo > hi then empty else { lo; hi }
  end

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let split i =
  let m = midpoint i in
  ({ lo = i.lo; hi = m }, { lo = m; hi = i.hi })

let neg i = if is_empty i then empty else { lo = -.i.hi; hi = -.i.lo }

let add a b =
  if is_empty a || is_empty b then empty
  else { lo = down (a.lo +. b.lo); hi = up (a.hi +. b.hi) }

let sub a b =
  if is_empty a || is_empty b then empty
  else { lo = down (a.lo -. b.hi); hi = up (a.hi -. b.lo) }

(* Endpoint product with the interval convention 0 * inf = 0 (the zero
   factor dominates in the limit hull). *)
let bound_mul x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

let mul a b =
  if is_empty a || is_empty b then empty
  else begin
    let p1 = bound_mul a.lo b.lo
    and p2 = bound_mul a.lo b.hi
    and p3 = bound_mul a.hi b.lo
    and p4 = bound_mul a.hi b.hi in
    let lo = Float.min (Float.min p1 p2) (Float.min p3 p4) in
    let hi = Float.max (Float.max p1 p2) (Float.max p3 p4) in
    { lo = down lo; hi = up hi }
  end

let inv_pos_or_neg y =
  (* 1/y for y not containing zero. *)
  { lo = down (1.0 /. y.hi); hi = up (1.0 /. y.lo) }

let inv y =
  if is_empty y then empty
  else if y.lo > 0.0 || y.hi < 0.0 then inv_pos_or_neg y
  else if y.lo = 0.0 && y.hi = 0.0 then empty
  else if y.lo = 0.0 then { lo = down (1.0 /. y.hi); hi = infinity }
  else if y.hi = 0.0 then { lo = neg_infinity; hi = up (1.0 /. y.lo) }
  else entire

let div x y =
  if is_empty x || is_empty y then empty
  else if y.lo > 0.0 || y.hi < 0.0 then mul x (inv_pos_or_neg y)
  else if y.lo = 0.0 && y.hi = 0.0 then empty
  else if x.lo = 0.0 && x.hi = 0.0 then of_float 0.0
  else if y.lo = 0.0 then begin
    if x.hi < 0.0 then { lo = neg_infinity; hi = up (x.hi /. y.hi) }
    else if x.lo > 0.0 then { lo = down (x.lo /. y.hi); hi = infinity }
    else entire
  end
  else if y.hi = 0.0 then begin
    if x.hi < 0.0 then { lo = down (x.hi /. y.lo); hi = infinity }
    else if x.lo > 0.0 then { lo = neg_infinity; hi = up (x.lo /. y.lo) }
    else entire
  end
  else entire

let mul_preimage r y =
  if mem 0.0 r && mem 0.0 y then entire else div r y

let sqr i =
  if is_empty i then empty
  else begin
    let a = Float.abs i.lo and b = Float.abs i.hi in
    let m = Float.max a b in
    if mem 0.0 i then { lo = 0.0; hi = up (m *. m) }
    else begin
      let small = Float.min a b in
      { lo = down (small *. small); hi = up (m *. m) }
    end
  end

let sqrt i =
  if is_empty i then empty
  else if i.hi < 0.0 then empty
  else begin
    let lo = if i.lo <= 0.0 then 0.0 else Float.max 0.0 (wide_down (Stdlib.sqrt i.lo)) in
    { lo; hi = wide_up (Stdlib.sqrt i.hi) }
  end

let rec pow i n =
  if is_empty i then empty
  else if n < 0 then inv (pow i (-n))
  else if n = 0 then of_float 1.0
  else if n = 1 then i
  else if n mod 2 = 0 then begin
    (* Even power: like sqr, sign-symmetric. *)
    let a = Float.abs i.lo and b = Float.abs i.hi in
    let big = Float.max a b and small = Float.min a b in
    let hi = up (big ** float_of_int n) in
    if mem 0.0 i then { lo = 0.0; hi }
    else { lo = down (small ** float_of_int n); hi }
  end
  else
    (* Odd power: monotone. *)
    { lo = down (i.lo ** float_of_int n); hi = up (i.hi ** float_of_int n) }

(* [c^n] for [c ≥ 0] by n − 1 products, each rounded one ulp outward: a
   rigorous bound in every range, subnormals included, with no libm. *)
let[@inline] pow_bound round c n =
  let p = ref c in
  for _ = 2 to n do
    p := round (!p *. c)
  done;
  !p

(* ⁿ√b rounded down or up, for b ≥ 0.  [b ** (1/n)] can miss the root by
   tens of ulps at large magnitudes (66 at 1e300, n = 3), so the candidate
   steps outward until its outward-rounded power lies on its side of [b].
   The steps double (1, 2, 4, … ulps): where the power is subnormal one
   ulp of the root does not move it. *)
let root_down n b =
  if b = 0.0 || b = infinity then b
  else begin
    let c = ref (b ** (1.0 /. float_of_int n)) in
    let step = ref (!c -. Float.pred !c) in
    while pow_bound up !c n > b do
      c := Float.max 0.0 (!c -. !step);
      step := 2.0 *. !step
    done;
    !c
  end

let root_up n b =
  if b = 0.0 || b = infinity then b
  else begin
    let c = ref (b ** (1.0 /. float_of_int n)) in
    let step = ref (Float.succ !c -. !c) in
    while pow_bound down !c n < b do
      c := !c +. !step;
      step := 2.0 *. !step
    done;
    !c
  end

let root i n =
  if is_empty i then empty
  else if n mod 2 = 1 then
    {
      lo = (if i.lo < 0.0 then -.root_up n (-.i.lo) else root_down n i.lo);
      hi = (if i.hi < 0.0 then -.root_down n (-.i.hi) else root_up n i.hi);
    }
  else if i.hi < 0.0 then empty
  else { lo = root_down n (Float.max 0.0 i.lo); hi = root_up n i.hi }

let abs i =
  if is_empty i then empty
  else if i.lo >= 0.0 then i
  else if i.hi <= 0.0 then neg i
  else { lo = 0.0; hi = Float.max (-.i.lo) i.hi }

let min_i a b =
  if is_empty a || is_empty b then empty
  else { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }

let max_i a b =
  if is_empty a || is_empty b then empty
  else { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }

let exp i =
  if is_empty i then empty
  else
    {
      lo = Float.max 0.0 (wide_down (Stdlib.exp i.lo));
      hi = (if i.hi = neg_infinity then 0.0 else wide_up (Stdlib.exp i.hi));
    }

let log i =
  if is_empty i then empty
  else if i.hi <= 0.0 then empty
  else begin
    let lo = if i.lo <= 0.0 then neg_infinity else wide_down (Stdlib.log i.lo) in
    { lo; hi = wide_up (Stdlib.log i.hi) }
  end

let two_pi = 2.0 *. Float.pi

(* Does [lo, hi] contain a point p + k*period for integer k?  Decided with a
   small tolerance biased toward "yes", which can only widen the result. *)
let contains_periodic_point p period ilo ihi =
  let k0 = Float.of_int (int_of_float (Float.floor ((ilo -. p) /. period))) in
  let check k =
    let c = p +. (k *. period) in
    c >= ilo -. 1e-9 && c <= ihi +. 1e-9
  in
  check (k0 -. 1.0) || check k0 || check (k0 +. 1.0) || check (k0 +. 2.0)

let trig_general f max_points min_points i =
  if is_empty i then empty
  else if
    (not (Float.is_finite i.lo))
    || (not (Float.is_finite i.hi))
    || width i >= two_pi
    || Float.abs i.lo > 1e12
    || Float.abs i.hi > 1e12
  then make (-1.0) 1.0
  else begin
    let flo = f i.lo and fhi = f i.hi in
    let lo0 = Float.min flo fhi and hi0 = Float.max flo fhi in
    let hi = if contains_periodic_point max_points two_pi i.lo i.hi then 1.0 else Float.min 1.0 (wide_up hi0) in
    let lo = if contains_periodic_point min_points two_pi i.lo i.hi then -1.0 else Float.max (-1.0) (wide_down lo0) in
    { lo; hi }
  end

let sin i = trig_general Stdlib.sin (Float.pi /. 2.0) (-.Float.pi /. 2.0) i

let cos i = trig_general Stdlib.cos 0.0 Float.pi i

let tanh i =
  if is_empty i then empty
  else
    {
      lo = Float.max (-1.0) (wide_down (Stdlib.tanh i.lo));
      hi = Float.min 1.0 (wide_up (Stdlib.tanh i.hi));
    }

let sigmoid_f x = 1.0 /. (1.0 +. Stdlib.exp (-.x))

let sigmoid i =
  if is_empty i then empty
  else
    {
      lo = Float.max 0.0 (wide_down (sigmoid_f i.lo));
      hi = Float.min 1.0 (wide_up (sigmoid_f i.hi));
    }

let atan i =
  if is_empty i then empty
  else
    {
      lo = Float.max (-.Float.pi /. 2.0) (wide_down (Stdlib.atan i.lo));
      hi = Float.min (Float.pi /. 2.0) (wide_up (Stdlib.atan i.hi));
    }

let asin i =
  let i = meet i (make (-1.0) 1.0) in
  if is_empty i then empty
  else
    {
      lo = Float.max (-.Float.pi /. 2.0) (wide_down (Stdlib.asin i.lo));
      hi = Float.min (Float.pi /. 2.0) (wide_up (Stdlib.asin i.hi));
    }

let acos i =
  let i = meet i (make (-1.0) 1.0) in
  if is_empty i then empty
  else
    (* acos is decreasing: swap endpoints. *)
    {
      lo = Float.max 0.0 (wide_down (Stdlib.acos i.hi));
      hi = Float.min Float.pi (wide_up (Stdlib.acos i.lo));
    }

(* Through log1p on |x|: 0.5·log((1+x)/(1−x)) cancels near 0 (2·10⁴ ulps
   off at x = 1e-5, against the 3-ulp envelope). *)
let atanh_f x =
  let a = Float.abs x in
  Float.copy_sign (0.5 *. Float.log1p (2.0 *. a /. (1.0 -. a))) x

let atanh i =
  let i = meet i (make (-1.0) 1.0) in
  if is_empty i then empty
  else begin
    let lo = if i.lo <= -1.0 then neg_infinity else wide_down (atanh_f i.lo) in
    let hi = if i.hi >= 1.0 then infinity else wide_up (atanh_f i.hi) in
    { lo; hi }
  end

(* logit x = 2·atanh(2x − 1), with 2x − 1 exact from x = 0.25 up; below
   that, x/(1 − x) < 1/3 and its log does not cancel. *)
let logit_f x =
  if x < 0.25 then Stdlib.log (x /. (1.0 -. x)) else 2.0 *. atanh_f ((2.0 *. x) -. 1.0)

let logit i =
  let i = meet i (make 0.0 1.0) in
  if is_empty i then empty
  else begin
    let lo = if i.lo <= 0.0 then neg_infinity else wide_down (logit_f i.lo) in
    let hi = if i.hi >= 1.0 then infinity else wide_up (logit_f i.hi) in
    { lo; hi }
  end

let tan_principal i =
  let half_pi = Float.pi /. 2.0 in
  let i = meet i (make (-.half_pi) half_pi) in
  if is_empty i then empty
  else begin
    let lo = if i.lo <= -.half_pi +. 1e-12 then neg_infinity else wide_down (Stdlib.tan i.lo) in
    let hi = if i.hi >= half_pi -. 1e-12 then infinity else wide_up (Stdlib.tan i.hi) in
    { lo; hi }
  end

let equal a b = (is_empty a && is_empty b) || (a.lo = b.lo && a.hi = b.hi)

let pp fmt i =
  if is_empty i then Format.fprintf fmt "[empty]"
  else Format.fprintf fmt "[%.17g, %.17g]" i.lo i.hi

let to_string i = Format.asprintf "%a" pp i
