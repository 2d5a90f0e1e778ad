type mode = [ `Full | `Diagonal ]

type t = {
  n : int;
  lambda : int;
  mu : int;
  weights : float array;
  mueff : float;
  cc : float;
  cs : float;
  c1 : float;
  cmu : float;
  damps : float;
  chi_n : float;
  mode : mode;
  rng : Rng.t;
  mutable mean : Vec.t;
  mutable sigma : float;
  mutable pc : Vec.t;
  mutable ps : Vec.t;
  mutable cov : Mat.t; (* full mode *)
  mutable cov_diag : Vec.t; (* diagonal mode *)
  mutable eigen_basis : Mat.t; (* B: columns are eigenvectors *)
  mutable eigen_scale : Vec.t; (* D: sqrt of eigenvalues *)
  mutable eigen_stale : int; (* generations since last decomposition *)
  mutable generation : int;
  mutable best : (Vec.t * float) option;
  mutable last_sampled : Vec.t array; (* z-space samples for the last ask *)
}

let default_lambda n = 4 + int_of_float (3.0 *. log (float_of_int n))

let create ?lambda ?(sigma = 0.3) ?mode ~rng x0 =
  let n = Vec.dim x0 in
  if n = 0 then invalid_arg "Cmaes.create: empty initial point";
  let lambda = match lambda with Some l -> l | None -> default_lambda n in
  if lambda < 2 then invalid_arg "Cmaes.create: lambda must be >= 2";
  let mode =
    match mode with Some m -> m | None -> if n <= 200 then `Full else `Diagonal
  in
  let mu = lambda / 2 in
  let raw =
    Array.init mu (fun i ->
        log (float_of_int mu +. 0.5) -. log (float_of_int (i + 1)))
  in
  let total = Array.fold_left ( +. ) 0.0 raw in
  let weights = Array.map (fun w -> w /. total) raw in
  let mueff =
    1.0 /. Array.fold_left (fun acc w -> acc +. (w *. w)) 0.0 weights
  in
  let nf = float_of_int n in
  let cc = (4.0 +. (mueff /. nf)) /. (nf +. 4.0 +. (2.0 *. mueff /. nf)) in
  let cs = (mueff +. 2.0) /. (nf +. mueff +. 5.0) in
  let c1 = 2.0 /. (((nf +. 1.3) ** 2.0) +. mueff) in
  let cmu =
    Float.min (1.0 -. c1)
      (2.0 *. (mueff -. 2.0 +. (1.0 /. mueff)) /. (((nf +. 2.0) ** 2.0) +. mueff))
  in
  let damps = 1.0 +. (2.0 *. Float.max 0.0 (sqrt ((mueff -. 1.0) /. (nf +. 1.0)) -. 1.0)) +. cs in
  let chi_n = sqrt nf *. (1.0 -. (1.0 /. (4.0 *. nf)) +. (1.0 /. (21.0 *. nf *. nf))) in
  {
    n;
    lambda;
    mu;
    weights;
    mueff;
    cc;
    cs;
    c1;
    cmu;
    damps;
    chi_n;
    mode;
    rng;
    mean = Vec.copy x0;
    sigma;
    pc = Vec.zeros n;
    ps = Vec.zeros n;
    cov = Mat.identity n;
    cov_diag = Vec.make n 1.0;
    eigen_basis = Mat.identity n;
    eigen_scale = Vec.make n 1.0;
    eigen_stale = 0;
    generation = 0;
    best = None;
    last_sampled = [||];
  }

let dim t = t.n

let lambda t = t.lambda

let generation t = t.generation

let mean t = Vec.copy t.mean

let sigma t = t.sigma

let best t = t.best

(* Refresh B and D from the covariance when enough rank updates have
   accumulated (amortizes the O(n^3) eigendecomposition). *)
let refresh_eigen t =
  match t.mode with
  | `Diagonal ->
    t.eigen_scale <- Vec.map (fun c -> sqrt (Float.max c 1e-30)) t.cov_diag
  | `Full ->
    let budget = 1.0 /. ((t.c1 +. t.cmu) *. float_of_int t.n *. 10.0) in
    if float_of_int t.eigen_stale >= budget || t.generation = 0 then begin
      t.eigen_stale <- 0;
      let eigenvalues, basis = Eig.symmetric t.cov in
      t.eigen_scale <- Array.map (fun l -> sqrt (Float.max l 1e-30)) eigenvalues;
      t.eigen_basis <- basis
    end

let ask t =
  refresh_eigen t;
  let zs = Array.init t.lambda (fun _ -> Vec.init t.n (fun _ -> Rng.normal t.rng)) in
  t.last_sampled <- zs;
  Array.map
    (fun z ->
      match t.mode with
      | `Diagonal ->
        Vec.init t.n (fun i -> t.mean.(i) +. (t.sigma *. t.eigen_scale.(i) *. z.(i)))
      | `Full ->
        (* x = m + sigma * B * (D .* z) *)
        let dz = Vec.hadamard t.eigen_scale z in
        let bdz = Mat.mul_vec t.eigen_basis dz in
        Vec.axpy t.sigma bdz t.mean)
    zs

let tell t pop fitness =
  if Array.length pop <> t.lambda || Array.length fitness <> t.lambda then
    invalid_arg "Cmaes.tell: population size mismatch";
  let order = Array.init t.lambda (fun i -> i) in
  Array.sort (fun i j -> Float.compare fitness.(i) fitness.(j)) order;
  (* Track best-ever. *)
  let b = order.(0) in
  (match t.best with
  | Some (_, f) when f <= fitness.(b) -> ()
  | _ -> t.best <- Some (Vec.copy pop.(b), fitness.(b)));
  let old_mean = t.mean in
  (* Weighted recombination of the top-mu candidates. *)
  let new_mean = Vec.zeros t.n in
  for k = 0 to t.mu - 1 do
    let x = pop.(order.(k)) in
    let w = t.weights.(k) in
    for i = 0 to t.n - 1 do
      new_mean.(i) <- new_mean.(i) +. (w *. x.(i))
    done
  done;
  t.mean <- new_mean;
  (* y_w = (m' - m) / sigma *)
  let y_w = Vec.scale (1.0 /. t.sigma) (Vec.sub new_mean old_mean) in
  (* C^{-1/2} y_w *)
  let c_inv_sqrt_y =
    match t.mode with
    | `Diagonal -> Vec.init t.n (fun i -> y_w.(i) /. Float.max t.eigen_scale.(i) 1e-30)
    | `Full ->
      let bty = Mat.mul_vec (Mat.transpose t.eigen_basis) y_w in
      let scaled = Vec.init t.n (fun i -> bty.(i) /. Float.max t.eigen_scale.(i) 1e-30) in
      Mat.mul_vec t.eigen_basis scaled
  in
  let cs_coeff = sqrt (t.cs *. (2.0 -. t.cs) *. t.mueff) in
  t.ps <- Vec.axpy cs_coeff c_inv_sqrt_y (Vec.scale (1.0 -. t.cs) t.ps);
  let gen1 = float_of_int (t.generation + 1) in
  let ps_norm = Vec.norm2 t.ps in
  let hsig =
    ps_norm /. sqrt (1.0 -. ((1.0 -. t.cs) ** (2.0 *. gen1))) /. t.chi_n
    < 1.4 +. (2.0 /. (float_of_int t.n +. 1.0))
  in
  let cc_coeff = sqrt (t.cc *. (2.0 -. t.cc) *. t.mueff) in
  t.pc <-
    Vec.axpy (if hsig then cc_coeff else 0.0) y_w (Vec.scale (1.0 -. t.cc) t.pc);
  (* Covariance update: decay + rank-one + rank-mu. *)
  let hsig_correction = if hsig then 0.0 else t.cc *. (2.0 -. t.cc) in
  (match t.mode with
  | `Diagonal ->
    let decay = 1.0 -. t.c1 -. t.cmu in
    let diag = t.cov_diag in
    for i = 0 to t.n - 1 do
      let rank_mu = ref 0.0 in
      for k = 0 to t.mu - 1 do
        let x = pop.(order.(k)) in
        let y = (x.(i) -. old_mean.(i)) /. t.sigma in
        rank_mu := !rank_mu +. (t.weights.(k) *. y *. y)
      done;
      diag.(i) <-
        (decay *. diag.(i))
        +. (t.c1 *. ((t.pc.(i) *. t.pc.(i)) +. (hsig_correction *. diag.(i))))
        +. (t.cmu *. !rank_mu)
    done
  | `Full ->
    let decay = 1.0 -. t.c1 -. t.cmu in
    let c = t.cov in
    for i = 0 to t.n - 1 do
      for j = 0 to t.n - 1 do
        c.(i).(j) <-
          decay *. c.(i).(j)
          +. (t.c1
             *. ((t.pc.(i) *. t.pc.(j)) +. (hsig_correction *. c.(i).(j))))
      done
    done;
    for k = 0 to t.mu - 1 do
      let x = pop.(order.(k)) in
      let w = t.cmu *. t.weights.(k) in
      let y = Vec.init t.n (fun i -> (x.(i) -. old_mean.(i)) /. t.sigma) in
      for i = 0 to t.n - 1 do
        for j = 0 to t.n - 1 do
          c.(i).(j) <- c.(i).(j) +. (w *. y.(i) *. y.(j))
        done
      done
    done);
  t.eigen_stale <- t.eigen_stale + 1;
  (* Step-size adaptation. *)
  t.sigma <- t.sigma *. Float.exp (t.cs /. t.damps *. ((ps_norm /. t.chi_n) -. 1.0));
  t.generation <- t.generation + 1

type stop_reason =
  | Max_iterations
  | Tol_fun of float
  | Tol_sigma of float
  | Budget_exceeded of Budget.stop

let tol_sigma = 1e-14

let optimize ?(max_iter = 200) ?(tol_fun = 1e-12) ?(budget = Budget.unlimited)
    ?(callback = fun _ _ _ -> ()) t objective =
  let reason = ref Max_iterations in
  (try
     for _ = 1 to max_iter do
       (* Checked once per generation: a whole-population evaluation is the
          natural granularity, and objectives are caller code we cannot
          interrupt anyway. *)
       (match Budget.check budget with
       | Some stop ->
         reason := Budget_exceeded stop;
         raise Exit
       | None -> ());
       let pop = ask t in
       let fitness = Array.map objective pop in
       tell t pop fitness;
       let best_f = Array.fold_left Float.min fitness.(0) fitness in
       callback t t.generation best_f;
       let worst_f = Array.fold_left Float.max fitness.(0) fitness in
       if worst_f -. best_f < tol_fun then begin
         reason := Tol_fun (worst_f -. best_f);
         raise Exit
       end;
       if t.sigma < tol_sigma then begin
         reason := Tol_sigma t.sigma;
         raise Exit
       end
     done
   with Exit -> ());
  match t.best with
  | Some (x, f) -> (x, f, !reason)
  | None -> invalid_arg "Cmaes.optimize: no generation completed"
