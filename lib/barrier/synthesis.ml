type mode = Finite_difference | Lie_derivative

type options = {
  mode : mode;
  subsample : int;
  min_rho : float;
  coeff_bound : float;
  min_margin : float;
  exclude_rect : (float * float) array option;
  separation_rects : ((float * float) array * (float * float) array) option;
}

let default_options =
  {
    mode = Finite_difference;
    subsample = 1;
    min_rho = 1e-6;
    coeff_bound = 1.0;
    min_margin = 1e-5;
    exclude_rect = None;
    separation_rects = None;
  }

let with_region options ~x0_rect ~safe_rect =
  {
    options with
    exclude_rect = Some (Option.value options.exclude_rect ~default:x0_rect);
    separation_rects = Some (Option.value options.separation_rects ~default:(x0_rect, safe_rect));
  }

let excluded options x =
  match options.exclude_rect with
  | None -> false
  | Some rect ->
    (* Arity must be validated before indexing: a rect longer than the
       state would raise a bare [Index out of bounds] mid-synthesis, and a
       shorter one would silently leave dimensions unconstrained —
       excluding states the caller never asked to exclude. *)
    if Array.length rect <> Array.length x then
      invalid_arg
        (Printf.sprintf "Synthesis.excluded: exclude_rect has %d dimensions but the state has %d"
           (Array.length rect) (Array.length x));
    let inside = ref true in
    Array.iteri (fun i (lo, hi) -> if x.(i) < lo || x.(i) > hi then inside := false) rect;
    !inside

type candidate = { coeffs : float array; margin : float }

type outcome =
  | Candidate of candidate
  | Lp_infeasible
  | Lp_unstable
  | Margin_too_small of float
  | Lp_timed_out of Budget.stop

let rho x = Vec.dot x x

(* Iterate the retained (subsampled) indices of a trace.  The final state
   is always retained even when the stride does not land on it: the trace
   endpoint is often the deepest excursion, and dropping it would leave
   the LP unconstrained exactly where W matters most. *)
let retained_indices options tr =
  let n = Ode.trace_length tr in
  let step = max 1 options.subsample in
  let rec collect acc i = if i >= n then acc else collect (i :: acc) (i + step) in
  let acc = collect [] 0 in
  let acc = match acc with last :: _ when last <> n - 1 -> (n - 1) :: acc | _ -> acc in
  List.rev acc

let rows_of_trace options ~template ~field tr =
  let p = Template.dimension template in
  let idxs = Array.of_list (retained_indices options tr) in
  let rows = ref [] in
  let add_row coeffs relation rhs = rows := { Lp.coeffs; relation; rhs } :: !rows in
  Array.iteri
    (fun pos i ->
      let x = tr.Ode.states.(i) in
      let r = rho x in
      if r >= options.min_rho && not (excluded options x) then begin
        let phi = Template.eval_basis template x in
        (* Positivity: Σ c_k φ_k(x) − m ρ(x) ≥ 0, variables (c…, m). *)
        let row = Array.make (p + 1) 0.0 in
        Array.blit phi 0 row 0 p;
        row.(p) <- -.r;
        add_row row Lp.Ge 0.0;
        (* Decrease row. *)
        match options.mode with
        | Finite_difference ->
          if pos + 1 < Array.length idxs then begin
            let j = idxs.(pos + 1) in
            let x' = tr.Ode.states.(j) in
            let dt = tr.Ode.times.(j) -. tr.Ode.times.(i) in
            if dt > 0.0 then begin
              let phi' = Template.eval_basis template x' in
              let row = Array.make (p + 1) 0.0 in
              for k = 0 to p - 1 do
                row.(k) <- phi'.(k) -. phi.(k)
              done;
              row.(p) <- r *. dt;
              add_row row Lp.Le 0.0
            end
          end
        | Lie_derivative ->
          (* d/dt W(x(t)) = Σ c_k ∇φ_k(x)·f(x): exact monomial gradients. *)
          let f = field tr.Ode.times.(i) x in
          let lie = Template.basis_lie template x f in
          let row = Array.make (p + 1) 0.0 in
          Array.blit lie 0 row 0 p;
          row.(p) <- r;
          add_row row Lp.Le 0.0
      end)
    idxs;
  !rows

let cex_row ~template ~field p x =
  let f = field 0.0 x in
  let lie = Template.basis_lie template x f in
  let row = Array.make (p + 1) 0.0 in
  Array.blit lie 0 row 0 p;
  row.(p) <- rho x;
  { Lp.coeffs = row; relation = Lp.Le; rhs = 0.0 }

(* Sample each finitely-bounded boundary face on a grid per free dimension;
   dimensions with infinite bounds (unconstrained by the unsafe set)
   contribute no face and are gridded over the X0 range instead. *)
let grid_range ~x0_rect ~safe_rect j =
  let lo, hi = safe_rect.(j) in
  if Float.is_finite lo && Float.is_finite hi then (lo, hi)
  else begin
    (* Unconstrained dimension: grid over an inflated X0 range (the
       sublevel set's tangency points can sit well outside X0).
       Inflation must be about the rect's midpoint, not the origin:
       scaling the raw bounds maps an off-origin X0 like [2, 3] to
       [10, 15] — a grid that excludes X0 entirely — and inverts
       negative rects (lo > hi). *)
    let x0_lo, x0_hi = x0_rect.(j) in
    let mid = 0.5 *. (x0_lo +. x0_hi) in
    let half = 0.5 *. (x0_hi -. x0_lo) in
    (mid -. (5.0 *. half), mid +. (5.0 *. half))
  end

(* Shape rows: W(face sample) >= (1 + alpha) * W(x0 vertex) for every pair
   — hard multiplicative separation (tying it to the decrease margin m
   would make it vacuous, since m is orders of magnitude below the W
   scale).  Still only a sampled sufficient direction; conditions (6)/(7)
   are SMT-checked afterward. *)
let separation_alpha = 0.1

(* The row W(face) >= (1 + alpha) W(vertex), from the two basis vectors. *)
let separation_row p phi_f phi_v =
  let row = Array.make (p + 1) 0.0 in
  for k = 0 to p - 1 do
    row.(k) <- phi_f.(k) -. ((1.0 +. separation_alpha) *. phi_v.(k))
  done;
  { Lp.coeffs = row; relation = Lp.Ge; rhs = 0.0 }

let shape_cut_row ~template p (face_point, vertex) =
  separation_row p (Template.eval_basis template face_point) (Template.eval_basis template vertex)

let separation_rows options ~template =
  match options.separation_rects with
  | None -> []
  | Some (x0_rect, safe_rect) ->
    let p = Template.dimension template in
    let n = Array.length x0_rect in
    let vertices = Levelset.rect_vertices x0_rect in
    let grid_points j =
      let lo, hi = grid_range ~x0_rect ~safe_rect j in
      [ lo; 0.5 *. (lo +. hi) -. (0.25 *. (hi -. lo)); 0.5 *. (lo +. hi);
        0.5 *. (lo +. hi) +. (0.25 *. (hi -. lo)); hi ]
    in
    let face_points =
      List.concat
        (List.init n (fun i ->
             let lo_i, hi_i = safe_rect.(i) in
             let face_vals =
               (if Float.is_finite lo_i then [ lo_i ] else [])
               @ (if Float.is_finite hi_i then [ hi_i ] else [])
             in
             List.concat_map
               (fun face_val ->
                 let rec grid j acc =
                   if j = n then List.map (fun xs -> Array.of_list (List.rev xs)) acc
                   else if j = i then grid (j + 1) (List.map (fun xs -> face_val :: xs) acc)
                   else
                     grid (j + 1)
                       (List.concat_map
                          (fun xs -> List.map (fun g -> g :: xs) (grid_points j))
                          acc)
                 in
                 grid 0 [ [] ])
               face_vals))
    in
    List.concat_map
      (fun v ->
        let phi_v = Template.eval_basis template v in
        List.map (fun f -> separation_row p (Template.eval_basis template f) phi_v) face_points)
      vertices

(* Last line of defence against faulty dynamics: a row with a NaN/Inf
   coefficient would poison the whole LP.  Dropping it only removes a
   sampled constraint — the SMT checks still gate any certificate. *)
let finite_row r = Array.for_all Float.is_finite r.Lp.coeffs && Float.is_finite r.Lp.rhs

let build_problem options ~cex_points ~exact_traces ~shape_cuts ~template ~field traces =
  let p = Template.dimension template in
  let trace_rows = List.concat_map (rows_of_trace options ~template ~field) traces in
  let exact_rows =
    let exact_options = { options with subsample = 1 } in
    List.concat_map (rows_of_trace exact_options ~template ~field) exact_traces
  in
  let cut_rows =
    List.filter_map
      (fun x -> if rho x >= options.min_rho then Some (cex_row ~template ~field p x) else None)
      cex_points
  in
  let rows =
    List.filter finite_row
      (List.map (shape_cut_row ~template p) shape_cuts
      @ separation_rows options ~template @ cut_rows @ exact_rows @ trace_rows)
  in
  let objective = Array.make (p + 1) 0.0 in
  objective.(p) <- -1.0;
  (* maximize m *)
  let bounds =
    Array.init (p + 1) (fun k ->
        if k < p then (-.options.coeff_bound, options.coeff_bound) else (-1.0, 1.0))
  in
  { Lp.objective; constraints = rows; bounds }

let outcome_of_result options p result =
  match result with
  | Lp.Infeasible -> Lp_infeasible
  | Lp.Numerical_failure -> Lp_unstable
  | Lp.Timeout stop -> Lp_timed_out stop
  | Lp.Optimal { Lp.x; _ } ->
    let margin = x.(p) in
    if margin <= options.min_margin then Margin_too_small margin
    else Candidate { coeffs = Array.sub x 0 p; margin }

let count_rows ?(options = default_options) ~template traces =
  let field _ x = Vec.zeros (Vec.dim x) in
  List.length (List.concat_map (rows_of_trace options ~template ~field) traces)

(* The CEGIS-facing incremental wrapper: the LP is assembled once from the
   seed traces, and each refinement (counterexample point, its simulated
   trace, a shape cut) appends rows to a live {!Lp.Incremental} instance —
   so iteration k resolves from iteration k−1's optimal basis instead of a
   cold start. *)
module Incremental = struct
  type t = {
    options : options;
    template : Template.t;
    field : Ode.field;
    p : int;
    lp : Lp.Incremental.t;
  }

  let create ?(options = default_options) ?(cex_points = []) ?(exact_traces = [])
      ?(shape_cuts = []) ~template ~field traces =
    let problem =
      build_problem options ~cex_points ~exact_traces ~shape_cuts ~template ~field traces
    in
    {
      options;
      template;
      field;
      p = Template.dimension template;
      lp = Lp.Incremental.create problem;
    }

  let add_row t row = if finite_row row then Lp.Incremental.add_constraint t.lp row

  let add_cex t x =
    if rho x >= t.options.min_rho then
      add_row t (cex_row ~template:t.template ~field:t.field t.p x)

  let add_trace t tr =
    List.iter (add_row t) (rows_of_trace t.options ~template:t.template ~field:t.field tr)

  let add_exact_trace t tr =
    let exact_options = { t.options with subsample = 1 } in
    List.iter (add_row t)
      (rows_of_trace exact_options ~template:t.template ~field:t.field tr)

  let add_shape_cut t pair = add_row t (shape_cut_row ~template:t.template t.p pair)

  let row_count t = Lp.Incremental.nrows t.lp

  let warm t = Lp.Incremental.warm t.lp

  let problem t = Lp.Incremental.problem t.lp

  let solve ?budget t = outcome_of_result t.options t.p (Lp.Incremental.resolve ?budget t.lp)
end
