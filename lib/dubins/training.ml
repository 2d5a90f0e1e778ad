type cost_weights = {
  w_derr : float;
  w_theta : float;
  w_u : float;
  w_terminal : float;
}

let paper_weights = { w_derr = 100.0; w_theta = 1e5; w_u = 100.0; w_terminal = 1e3 }

(* Balanced weights for the perturbed-start recovery rollouts: under the
   paper's 10⁵ on θ_err², parking off the path is cheaper than steering
   back from a large offset. *)
let recovery_weights = { w_derr = 100.0; w_theta = 100.0; w_u = 10.0; w_terminal = 0.0 }

let cost ?(weights = paper_weights) ~v ~path ~dt ~steps net =
  let r = Dubins_car.rollout ~v ~path ~dt ~steps ~x0:(Dubins_car.start_pose path) net in
  let acc = ref 0.0 in
  for k = 0 to Array.length r.Dubins_car.derr - 1 do
    let d = r.Dubins_car.derr.(k)
    and th = r.Dubins_car.theta_err.(k)
    and u = r.Dubins_car.u.(k) in
    acc :=
      !acc
      +. (weights.w_derr *. d *. d)
      +. (weights.w_theta *. th *. th)
      +. (weights.w_u *. u *. u)
  done;
  let xe, ye = Path.end_point path in
  let final = Ode.final_state r.Dubins_car.trace in
  let dx = xe -. final.(0) and dy = ye -. final.(1) in
  !acc +. (weights.w_terminal *. ((dx *. dx) +. (dy *. dy)))

type snapshot = {
  iteration : int;
  best_cost : float;
  actual_path : (float * float) array;
}

type result = {
  network : Nn.t;
  final_cost : float;
  history : (int * float) list;
  snapshots : snapshot list;
}

let rollout_xy ~v ~path ~dt ~steps net =
  let r = Dubins_car.rollout ~v ~path ~dt ~steps ~x0:(Dubins_car.start_pose path) net in
  Array.map (fun s -> (s.(0), s.(1))) r.Dubins_car.trace.Ode.states

let perturbed_start path ~derr ~theta_err =
  let pose = Dubins_car.start_pose path in
  (* Left normal of the initial heading (sin θ, cos θ) is (-cos θ, sin θ). *)
  let nx = -.Float.cos pose.Dubins_car.theta and ny = Float.sin pose.Dubins_car.theta in
  {
    Dubins_car.x = pose.Dubins_car.x +. (derr *. nx);
    y = pose.Dubins_car.y +. (derr *. ny);
    theta = pose.Dubins_car.theta -. theta_err;
  }

(* Running cost of a recovery rollout from a perturbed start (no terminal
   term: the point is stabilization, not path completion). *)
let recovery_cost weights ~v ~path ~dt ~steps ~start net =
  let r = Dubins_car.rollout ~stop_at_end:false ~v ~path ~dt ~steps ~x0:start net in
  let acc = ref 0.0 in
  for k = 0 to Array.length r.Dubins_car.derr - 1 do
    let d = r.Dubins_car.derr.(k)
    and th = r.Dubins_car.theta_err.(k)
    and u = r.Dubins_car.u.(k) in
    acc :=
      !acc
      +. (weights.w_derr *. d *. d)
      +. (weights.w_theta *. th *. th)
      +. (weights.w_u *. u *. u)
  done;
  !acc

let train ?(hidden = 10) ?(population = 15) ?(iterations = 50) ?(v = 1.0) ?(dt = 0.2)
    ?(steps = 0) ?(snapshot_at = [ 0; 5; 25 ]) ?(sigma = 0.5) ?(perturbed = [])
    ?(perturbed_steps = 120) ?initial ~rng path =
  (* Enough steps to traverse the whole path at speed v, plus slack. *)
  let steps =
    if steps > 0 then steps
    else int_of_float (Float.ceil (Path.total_length path /. (v *. dt) *. 1.2))
  in
  let template =
    match initial with
    | Some net ->
      if Nn.num_params net <> (4 * hidden) + 1 then
        invalid_arg "Training.train: initial controller width mismatch";
      net
    | None -> Nn.controller ~rng ~hidden
  in
  let starts = List.map (fun (d, th) -> perturbed_start path ~derr:d ~theta_err:th) perturbed in
  let objective theta =
    let net = Nn.set_params template theta in
    let base = cost ~v ~path ~dt ~steps net in
    List.fold_left
      (fun acc start ->
        acc
        +. recovery_cost recovery_weights ~v ~path ~dt ~steps:perturbed_steps ~start net)
      base starts
  in
  let opt = Cmaes.create ~lambda:population ~sigma ~rng (Nn.get_params template) in
  let history = ref [] in
  let snapshots = ref [] in
  let record_snapshot iteration net best_cost =
    snapshots :=
      { iteration; best_cost; actual_path = rollout_xy ~v ~path ~dt ~steps net } :: !snapshots
  in
  (* Iteration 0 = random initial weights (Figure 4a). *)
  if List.mem 0 snapshot_at then
    record_snapshot 0 template (objective (Nn.get_params template));
  let callback t gen best_f =
    history := (gen, best_f) :: !history;
    if List.mem gen snapshot_at then begin
      match Cmaes.best t with
      | Some (theta, f) -> record_snapshot gen (Nn.set_params template theta) f
      | None -> ()
    end
  in
  let theta, final_cost, _reason =
    Cmaes.optimize ~max_iter:iterations ~tol_fun:0.0 ~callback opt objective
  in
  let network = Nn.set_params template theta in
  record_snapshot iterations network final_cost;
  {
    network;
    final_cost;
    history = List.rev !history;
    snapshots = List.rev !snapshots;
  }
