(* Cyclic Jacobi rotations: repeatedly zero the largest off-diagonal entries
   until the off-diagonal Frobenius mass falls below tolerance.  For the
   small matrices used here (CMA-ES covariance of NN parameters is the
   biggest customer, and it works in the template/parameter dimension, not
   the neuron count) this is robust and dependency-free. *)

let max_sweeps = 64

let symmetric ?(tol = 1e-12) a0 =
  let n = Mat.rows a0 in
  if Mat.cols a0 <> n then invalid_arg "Eig.symmetric: matrix not square";
  let a = Mat.symmetrize a0 in
  let v = Mat.identity n in
  let off_norm () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt (2.0 *. !acc)
  in
  let scale = Float.max 1.0 (Mat.frobenius a) in
  let sweep = ref 0 in
  while off_norm () > tol *. scale && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = a.(p).(q) in
        if Float.abs apq > 1e-300 then begin
          (* Classic Jacobi rotation zeroing a(p,q). *)
          let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          for k = 0 to n - 1 do
            let akp = a.(k).(p) and akq = a.(k).(q) in
            a.(k).(p) <- (c *. akp) -. (s *. akq);
            a.(k).(q) <- (s *. akp) +. (c *. akq)
          done;
          for k = 0 to n - 1 do
            let apk = a.(p).(k) and aqk = a.(q).(k) in
            a.(p).(k) <- (c *. apk) -. (s *. aqk);
            a.(q).(k) <- (s *. apk) +. (c *. aqk)
          done;
          for k = 0 to n - 1 do
            let vkp = v.(k).(p) and vkq = v.(k).(q) in
            v.(k).(p) <- (c *. vkp) -. (s *. vkq);
            v.(k).(q) <- (s *. vkp) +. (c *. vkq)
          done
        end
      done
    done
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare a.(i).(i) a.(j).(j)) order;
  let eigenvalues = Array.map (fun i -> a.(i).(i)) order in
  let eigenvectors = Mat.init n n (fun i j -> v.(i).(order.(j))) in
  (eigenvalues, eigenvectors)

let sqrt_spd a =
  let eigenvalues, v = symmetric a in
  let n = Array.length eigenvalues in
  let roots =
    Array.map
      (fun lambda ->
        if lambda < -1e-9 then invalid_arg "Eig.sqrt_spd: negative eigenvalue"
        else sqrt (Float.max lambda 0.0))
      eigenvalues
  in
  (* V diag(sqrt λ) Vᵀ *)
  Mat.init n n (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (v.(i).(k) *. roots.(k) *. v.(j).(k))
      done;
      !acc)
