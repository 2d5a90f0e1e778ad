type t = float array

let make n x = Array.make n x

let zeros n = Array.make n 0.0

let init = Array.init

let dim = Array.length

let copy = Array.copy

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

let add x y =
  check_dims "add" x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_dims "sub" x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x

let axpy a x y =
  check_dims "axpy" x y;
  Array.mapi (fun i xi -> (a *. xi) +. y.(i)) x

let[@inline] dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let[@inline] norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0.0 x

let dist2 x y = norm2 (sub x y)

let hadamard x y =
  check_dims "hadamard" x y;
  Array.mapi (fun i xi -> xi *. y.(i)) x

let map = Array.map

let map2 f x y =
  check_dims "map2" x y;
  Array.mapi (fun i xi -> f xi y.(i)) x

let add_inplace x y =
  check_dims "add_inplace" x y;
  for i = 0 to Array.length x - 1 do
    x.(i) <- x.(i) +. y.(i)
  done

let scale_inplace a x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- a *. x.(i)
  done

let of_list = Array.of_list

let pp fmt x =
  Format.fprintf fmt "[";
  Array.iteri
    (fun i xi -> Format.fprintf fmt "%s%g" (if i > 0 then "; " else "") xi)
    x;
  Format.fprintf fmt "]"

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  && begin
    let ok = ref true in
    Array.iteri (fun i xi -> if Float.abs (xi -. y.(i)) > tol then ok := false) x;
    !ok
  end
