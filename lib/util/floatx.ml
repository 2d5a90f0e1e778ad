let pi = Float.pi

let two_pi = 2.0 *. Float.pi

let approx ?(rel = 1e-9) ?(abs = 1e-12) a b =
  let diff = Float.abs (a -. b) in
  diff <= abs || diff <= rel *. Float.max (Float.abs a) (Float.abs b)

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let linspace a b n =
  assert (n >= 2);
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> if i = n - 1 then b else a +. (step *. float_of_int i))

let wrap_angle a =
  let r = Float.rem a two_pi in
  if r > pi then r -. two_pi else if r <= -.pi then r +. two_pi else r

let sum a = Array.fold_left ( +. ) 0.0 a

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else sum a /. float_of_int n

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0.0 a in
    sqrt (acc /. float_of_int n)
  end

let max_elt a =
  if Array.length a = 0 then invalid_arg "Floatx.max_elt: empty array";
  Array.fold_left Float.max a.(0) a

let min_elt a =
  if Array.length a = 0 then invalid_arg "Floatx.min_elt: empty array";
  Array.fold_left Float.min a.(0) a
