type system = {
  vars : string array;
  map_numeric : Vec.t -> Vec.t;
  delta_symbolic : Expr.t array;
}

type config = {
  x0_rect : (float * float) array;
  safe_rect : (float * float) array;
  unsafe_rect : (float * float) array;
  gamma : float;
  n_seed : int;
  n_probes : int;
  horizon : int;
  synthesis : Synthesis.options;
  template_kind : Template.kind;
  max_candidate_iters : int;
  max_level_iters : int;
  smt : Solver.options;
}

let default_config ~dim =
  if dim < 2 then invalid_arg "Discrete.default_config: need at least two state variables";
  let eps = 0.05 in
  let half_pi = Float.pi /. 2.0 in
  (* The hidden-state slice of X0 must have positive width: with a point
     slice {0}, D \ X0 contains states arbitrarily close to the
     equilibrium where the one-step decrease falls below gamma, making
     condition (5) false for every W.  Any superset of the true initial
     set is sound for a barrier, so we take [-0.2, 0.2]. *)
  let x0_rect =
    Array.init dim (fun i ->
        if i = 0 then (-1.0, 1.0)
        else if i = 1 then (-.Float.pi /. 16.0, Float.pi /. 16.0)
        else (-0.2, 0.2))
  in
  let safe_rect =
    Array.init dim (fun i ->
        if i = 0 then (-5.0, 5.0)
        else if i = 1 then (-.(half_pi -. eps), half_pi -. eps)
        else (-1.0, 1.0))
  in
  (* The unsafe set constrains the plant errors only: a controller's
     internal state cannot itself be "unsafe", and it stays in [-1, 1] by
     the tanh/leak invariant, so the barrier level set need not avoid
     |h| >= 1. *)
  let unsafe_rect =
    Array.init dim (fun i ->
        if i = 0 then (-5.0, 5.0)
        else if i = 1 then (-.(half_pi -. eps), half_pi -. eps)
        else (neg_infinity, infinity))
  in
  {
    x0_rect;
    safe_rect;
    unsafe_rect;
    gamma = 1e-6;
    n_seed = 30;
    n_probes = 150;
    horizon = 150;
    (* Multi-step (subsampled) decrease rows are implied by the one-step
       condition, so they are sound LP constraints; exactness at
       counterexamples comes from the injected two-point orbits. *)
    synthesis =
      { Synthesis.default_options with Synthesis.mode = Synthesis.Finite_difference; subsample = 4 };
    template_kind = Template.Quadratic;
    max_candidate_iters = 20;
    max_level_iters = 30;
    smt = Solver.default_options;
  }

let condition5_formula system config template coeffs =
  (* W(F(x)) - W(x) in the per-monomial factored form (tight interval
     evaluation; see Template.basis_delta_exprs). *)
  let deltas = Template.basis_delta_exprs template ~delta:system.delta_symbolic in
  let w_step =
    Expr.sum
      (Array.to_list (Array.mapi (fun k d -> Expr.( * ) (Expr.const coeffs.(k)) d) deltas))
  in
  Formula.and_
    [
      Formula.outside_rect (Cegis.rect_bounds system.vars config.x0_rect);
      Formula.ge w_step (Expr.const (-.config.gamma));
    ]

let iterate ?(budget = Budget.unlimited) system config x0 =
  (* The budget check bounds the orbit even when [map_numeric] stalls, and
     the finiteness check truncates divergent orbits before a NaN state can
     reach the LP (NaN compares false against the rect bounds, so [in_rect]
     alone would let it through). *)
  let rec go k x acc =
    if
      k > config.horizon
      || Vec.norm2 x < 1e-6
      || (not (Cegis.in_rect config.safe_rect x))
      || (not (Array.for_all Float.is_finite x))
      || Budget.expired budget
    then List.rev acc
    else go (k + 1) (system.map_numeric x) ((float_of_int k, x) :: acc)
  in
  let samples = go 0 x0 [] in
  match samples with
  | [] -> { Ode.times = [| 0.0 |]; states = [| x0 |] }
  | _ ->
    {
      Ode.times = Array.of_list (List.map fst samples);
      states = Array.of_list (List.map snd samples);
    }

(* A one-step orbit: its finite-difference row is exactly the discrete
   decrease constraint W(F(x)) - W(x) <= -m rho(x). *)
let step_orbit system x = { Ode.times = [| 0.0; 1.0 |]; states = [| x; system.map_numeric x |] }

let verify ?config ?(budget = Budget.unlimited) ~rng system =
  let config =
    match config with Some c -> c | None -> default_config ~dim:(Array.length system.vars)
  in
  let t_start = Timing.now () in
  let stats = Cegis.fresh_stats () in
  let template = Template.make config.template_kind system.vars in
  let sample = Cegis.sample_outside ~rng ~domain:config.safe_rect ~excluded:config.x0_rect in
  let seeds = sample config.n_seed in
  (* One-step probe orbits scattered over D: long orbits cluster around the
     attractor, leaving the LP blind to off-manifold states (e.g. hidden
     states inconsistent with the plant errors) exactly where the SMT check
     then fails.  Probes give the LP one-step decrease information
     everywhere.  Each probe costs one [map_numeric] call, so poll the
     budget per probe: a stalled map must not let this loop run past the
     deadline. *)
  let traces, probes =
    Cegis.timed stats Cegis.Simulation "seed_simulation" (fun () ->
        let traces = List.map (iterate ~budget system config) seeds in
        ( traces,
          List.filter_map
            (fun x -> if Budget.expired budget then None else Some (step_orbit system x))
            (sample config.n_probes) ))
  in
  let cegis =
    Cegis.create ~stats ~exact_traces:probes ~budget
      ~synthesis:
        {
          (Synthesis.with_region config.synthesis ~x0_rect:config.x0_rect
             ~safe_rect:config.unsafe_rect)
          with
          (* Trace rows must be the discrete decrease W(x_{k+1}) - W(x_k). *)
          Synthesis.mode = Synthesis.Finite_difference;
        }
      ~smt:config.smt ~max_iters:config.max_candidate_iters ~template
      ~field:(fun _t x -> system.map_numeric x)
      ~domain:config.safe_rect traces
  in
  (* A counterexample is cut exactly by its two-point orbit (not a Lie
     cut), plus the rows of its full orbit. *)
  let decrease =
    {
      Cegis.name = "condition (5)";
      formula = condition5_formula system config template;
      violates =
        (fun coeffs x ->
          let w = Template.w_eval template coeffs in
          w (system.map_numeric x) -. w x >= -.config.gamma);
      cuts =
        (fun x ->
          [
            Cegis.Exact_trace (step_orbit system x); Cegis.Trace (iterate ~budget system config x);
          ]);
    }
  in
  (* Shape-refinement outer loop: when level-set selection fails because
     the candidate's sublevel ellipsoids cannot separate X0 from U, cut the
     LP at the exact blocking geometry — the worst X0 vertex paired with
     the tangency point on the tightest unsafe face — and resynthesize. *)
  let blocking_cut coeffs =
    if Template.degree (Template.kind template) > 2 then
      (* The tangency geometry below is ellipsoid-specific (p_matrix only
         sees the degree-2 part of a polynomial template): no shape cut —
         the CEGIS counterexample cuts still refine the LP. *)
      None
    else begin
    let p = Template.p_matrix template coeffs in
    let w x = Template.w_eval template coeffs x in
    let worst_vertex =
      List.fold_left
        (fun best v -> match best with Some b when w b >= w v -> best | _ -> Some v)
        None
        (Levelset.rect_vertices config.x0_rect)
    in
    match (worst_vertex, Lu.inverse p) with
    | None, _ -> None
    | Some vertex, p_inv ->
      let best_face = ref None in
      Array.iteri
        (fun i (lo, hi) ->
          List.iter
            (fun b ->
              if Float.is_finite b && Float.abs b > 0.0 then begin
                let q = b *. b /. p_inv.(i).(i) in
                match !best_face with
                | Some (q', _, _) when q' <= q -> ()
                | _ -> !best_face |> ignore; best_face := Some (q, i, b)
              end)
            [ hi; lo ])
        config.unsafe_rect;
      (match !best_face with
      | None -> None
      | Some (_, dim, value) ->
        let tangency = Levelset.face_tangency ~p ~dim ~value in
        Some (tangency, vertex))
    | exception Lu.Singular -> None
    end
  in
  let spec =
    {
      Level_search.vars = system.vars;
      x0_rect = config.x0_rect;
      safe_rect = config.safe_rect;
      unsafe_rect = config.unsafe_rect;
      smt = config.smt;
      max_iters = config.max_level_iters;
    }
  in
  let rec outer round =
    match Budget.check budget with
    | Some stop ->
      stats.budget_stop <- Some stop;
      Engine.Failed (Engine.Timeout "level")
    | None ->
    if round > config.max_level_iters then Engine.Failed Engine.Level_budget_exhausted
    else begin
      match Cegis.run cegis [ decrease ] with
      | Error reason -> Engine.Failed reason
      | Ok coeffs -> (
        match Level_search.search ~budget ~stats spec template coeffs with
        | Ok level -> Engine.Proved { Engine.template; coeffs; level }
        | Error Engine.Level_range_empty -> (
          (* The live LP gets the blocking geometry as one more row. *)
          match blocking_cut coeffs with
          | Some (face, vertex) ->
            Cegis.refine cegis (Cegis.Shape_cut (face, vertex));
            outer (round + 1)
          | None -> Engine.Failed Engine.Level_range_empty)
        | Error reason -> Engine.Failed reason)
    end
  in
  let outcome =
    if List.length seeds < config.n_seed then
      Engine.Failed (Engine.Seed_shortfall (List.length seeds, config.n_seed))
    else outer 1
  in
  stats.total_time <- Timing.now () -. t_start;
  {
    Engine.outcome;
    stats;
    traces = Cegis.traces cegis;
    counterexamples = Cegis.witnesses cegis;
    cover = None;
  }

(* --- Case-study closed loops ------------------------------------------ *)

(* One forward-Euler step of the continuous error dynamics under a held
   steering command [u]. *)
let plant_step ~dt derr theta_err u =
  let f =
    Error_dynamics.field Error_dynamics.default_config ~controller:(fun _ _ -> u) 0.0
      [| derr; theta_err |]
  in
  (derr +. (dt *. f.(0)), theta_err +. (dt *. f.(1)))

(* Symbolic per-step increments of the Euler-discretized plant:
   delta_derr = dt * ddot(theta_err), delta_theta = -dt * u. *)
let plant_delta_exprs ~dt u =
  let ddot = (Error_dynamics.symbolic_field Error_dynamics.default_config ~u).(0) in
  let open Expr in
  (const dt * ddot, neg (const dt * u))

let of_network ~dt net =
  if Nn.output_dim net <> 1 || net.Nn.input_dim <> 2 then
    invalid_arg "Discrete.of_network: controller must be 2-in 1-out";
  let vars = [| Error_dynamics.var_derr; Error_dynamics.var_theta_err |] in
  let map_numeric x =
    let u = Nn.eval1 net [| x.(0); x.(1) |] in
    let d', th' = plant_step ~dt x.(0) x.(1) u in
    [| d'; th' |]
  in
  let u_expr = Error_dynamics.symbolic_controller net in
  let d_delta, th_delta = plant_delta_exprs ~dt u_expr in
  { vars; map_numeric; delta_symbolic = [| d_delta; th_delta |] }

let hidden_var i = Printf.sprintf "h%d" i

let of_rnn ~dt rnn =
  if Rnn.inputs rnn <> 2 || Rnn.outputs rnn <> 1 then
    invalid_arg "Discrete.of_rnn: controller must be 2-in 1-out";
  let k = Rnn.hidden rnn in
  let vars =
    Array.append
      [| Error_dynamics.var_derr; Error_dynamics.var_theta_err |]
      (Array.init k hidden_var)
  in
  let map_numeric x =
    let state = Array.sub x 2 k in
    let state', out = Rnn.step rnn ~state ~input:[| x.(0); x.(1) |] in
    let d', th' = plant_step ~dt x.(0) x.(1) out.(0) in
    Array.append [| d'; th' |] state'
  in
  let sym_state = Array.init k (fun i -> Expr.var (hidden_var i)) in
  let sym_input =
    [| Expr.var Error_dynamics.var_derr; Expr.var Error_dynamics.var_theta_err |]
  in
  let state', out = Rnn.step_exprs rnn ~state:sym_state ~input:sym_input in
  let d_delta, th_delta = plant_delta_exprs ~dt out.(0) in
  let state_delta = Array.mapi (fun i s' -> Expr.( - ) s' sym_state.(i)) state' in
  { vars; map_numeric; delta_symbolic = Array.append [| d_delta; th_delta |] state_delta }
