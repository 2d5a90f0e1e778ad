type t = { mutable state : int64; mutable spare : float option }

let gamma = 0x9E3779B97F4A7C15L

let create seed =
  { state = Int64.of_int seed; spare = None }

let copy t = { state = t.state; spare = t.spare }

(* splitmix64 finalizer: mix the incremented counter into a well-distributed
   64-bit word. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed; spare = None }

let float t =
  (* 53 uniform mantissa bits mapped to [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let normal t =
  match t.spare with
  | Some z ->
    t.spare <- None;
    z
  | None ->
    (* Box-Muller; u1 must be nonzero for the log. *)
    let rec nonzero () =
      let u = float t in
      if u > 0.0 then u else nonzero ()
    in
    let u1 = nonzero () and u2 = float t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.spare <- Some (r *. sin theta);
    r *. cos theta

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for n << 2^53. *)
  Stdlib.int_of_float (float t *. Stdlib.float_of_int n)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
