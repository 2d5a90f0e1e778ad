type t = float array array

let make m n x = Array.init m (fun _ -> Array.make n x)

let zeros m n = make m n 0.0

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0))

let init m n f = Array.init m (fun i -> Array.init n (fun j -> f i j))

let rows a = Array.length a

let cols a = if Array.length a = 0 then 0 else Array.length a.(0)

let copy a = Array.map Array.copy a

let transpose a =
  let m = rows a and n = cols a in
  init n m (fun i j -> a.(j).(i))

let check_same name a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name
                   (rows a) (cols a) (rows b) (cols b))

let add a b =
  check_same "add" a b;
  init (rows a) (cols a) (fun i j -> a.(i).(j) +. b.(i).(j))

let sub a b =
  check_same "sub" a b;
  init (rows a) (cols a) (fun i j -> a.(i).(j) -. b.(i).(j))

let scale s a = Array.map (Array.map (fun x -> s *. x)) a

let mul a b =
  let m = rows a and k = cols a and n = cols b in
  if rows b <> k then
    invalid_arg (Printf.sprintf "Mat.mul: inner dimension mismatch (%d vs %d)" k (rows b));
  let c = zeros m n in
  for i = 0 to m - 1 do
    let ai = a.(i) and ci = c.(i) in
    for p = 0 to k - 1 do
      let aip = ai.(p) in
      if aip <> 0.0 then begin
        let bp = b.(p) in
        for j = 0 to n - 1 do
          ci.(j) <- ci.(j) +. (aip *. bp.(j))
        done
      end
    done
  done;
  c

let mul_vec a x =
  let m = rows a and n = cols a in
  if Array.length x <> n then
    invalid_arg (Printf.sprintf "Mat.mul_vec: dimension mismatch (%d vs %d)" n (Array.length x));
  Array.init m (fun i -> Vec.dot a.(i) x)

let vec_mul x a =
  let m = rows a and n = cols a in
  if Array.length x <> m then
    invalid_arg (Printf.sprintf "Mat.vec_mul: dimension mismatch (%d vs %d)" m (Array.length x));
  Array.init n (fun j ->
      let acc = ref 0.0 in
      for i = 0 to m - 1 do
        acc := !acc +. (x.(i) *. a.(i).(j))
      done;
      !acc)

let outer x y = init (Array.length x) (Array.length y) (fun i j -> x.(i) *. y.(j))

let quadratic_form a x = Vec.dot x (mul_vec a x)

let trace a =
  let n = min (rows a) (cols a) in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. a.(i).(i)
  done;
  !acc

let frobenius a =
  let acc = ref 0.0 in
  Array.iter (Array.iter (fun x -> acc := !acc +. (x *. x))) a;
  sqrt !acc

let symmetrize a = init (rows a) (cols a) (fun i j -> 0.5 *. (a.(i).(j) +. a.(j).(i)))

let is_symmetric ?(tol = 1e-12) a =
  rows a = cols a
  && begin
    let ok = ref true in
    for i = 0 to rows a - 1 do
      for j = i + 1 to cols a - 1 do
        if Float.abs (a.(i).(j) -. a.(j).(i)) > tol then ok := false
      done
    done;
    !ok
  end

let approx_equal ?(tol = 1e-9) a b =
  rows a = rows b && cols a = cols b
  && begin
    let ok = ref true in
    for i = 0 to rows a - 1 do
      for j = 0 to cols a - 1 do
        if Float.abs (a.(i).(j) -. b.(i).(j)) > tol then ok := false
      done
    done;
    !ok
  end

let pp fmt a =
  Format.fprintf fmt "@[<v>";
  Array.iter (fun r -> Format.fprintf fmt "%a@," Vec.pp r) a;
  Format.fprintf fmt "@]"
