type spec = {
  vars : string array;
  x0_rect : (float * float) array;
  safe_rect : (float * float) array;
  unsafe_rect : (float * float) array;
  smt : Solver.options;
  max_iters : int;
}

let c_bisections = Obs.Metrics.counter "level_search.bisections"

(* Only finitely-bounded dimensions of the unsafe rectangle generate
   membership atoms. *)
let outside_unsafe spec =
  let dims =
    Array.to_list spec.vars
    |> List.mapi (fun i v -> (v, fst spec.unsafe_rect.(i), snd spec.unsafe_rect.(i)))
    |> List.filter (fun (_, lo, hi) -> Float.is_finite lo || Float.is_finite hi)
    |> List.map (fun (v, lo, hi) ->
           (v, (if Float.is_finite lo then lo else -1e12), if Float.is_finite hi then hi else 1e12))
  in
  Formula.outside_rect dims

(* Ellipsoid center: -P⁻¹b/2 for W = x'Px + b'x (zero for pure
   quadratics).  Only degree-2 templates have one — [Poly 2] enumerates
   exactly the Quadratic_linear basis, so it shares the analytic path,
   while higher degrees have non-ellipsoidal sublevel sets (callers
   dispatch on {!Template.degree}). *)
let ellipsoid_center template coeffs p =
  if Template.degree (Template.kind template) > 2 then
    invalid_arg "Level_search.ellipsoid_center: degree > 2 templates have no ellipsoid center"
  else
    match Template.kind template with
    | Template.Quadratic -> Vec.zeros (Array.length (Template.vars template))
    | Template.Quadratic_linear | Template.Poly _ ->
      (* Degree-2 layout: the quadratic block then the n linear terms. *)
      let n = Array.length (Template.vars template) in
      let n_quad = Template.dimension template - n in
      let b = Array.sub coeffs n_quad n in
      Vec.scale (-0.5) (Lu.solve p b)

(* The bounded query box for a condition-(7) solve: where can
   [W ≤ level ∧ strictly outside the unsafe-complement rectangle] hold?

   - Degree-2 templates (the quadratic kinds and [Poly 2]): the sublevel
     set is the ellipsoid [(x−c)ᵀP(x−c) ≤ level − W(c)]; its analytic
     bounding box around the center, slightly inflated for soundness of
     the query domain.  May raise [Levelset.Not_definite] (indefinite
     quadratic part) or [Lu.Singular], exactly as the analytic range
     computation.

   - Degree > 2: the sublevel set has no analytic enclosure and may even
     be unbounded, but a thin shell just outside the rectangle suffices:
     by conditions (5)/(6) a trajectory keeps [W ≤ ℓ] while it stays
     inside the closed safe rectangle, so any first violation of safety
     happens AT a boundary crossing — a point on the rectangle's face with
     [W ≤ ℓ].  Unsat on the shell refutes every such crossing point (the
     shell contains all strictly-outside points within [eps] of the
     faces), and points deeper outside are unreachable without first
     crossing the shell.  Infinite bounds are clamped to the same ±1e12
     box the membership atoms use (see [outside_unsafe]). *)
let condition7_query_rect template coeffs ~level ~unsafe_rect =
  if Template.degree (Template.kind template) <= 2 then begin
    let p = Template.p_matrix template coeffs in
    let center = ellipsoid_center template coeffs p in
    let w_center = Template.w_eval template coeffs center in
    let bbox =
      Levelset.ellipsoid_bounding_box ~p ~level:(Float.max (level -. w_center) 0.0 +. 1e-9)
    in
    Array.mapi
      (fun i (lo_i, hi_i) ->
        (center.(i) +. (1.01 *. lo_i) -. 1e-6, center.(i) +. (1.01 *. hi_i) +. 1e-6))
      bbox
  end
  else
    Array.map
      (fun (lo, hi) ->
        let lo = if Float.is_finite lo then lo else -1e12
        and hi = if Float.is_finite hi then hi else 1e12 in
        let eps = Float.max 1e-6 (1e-3 *. (hi -. lo)) in
        (lo -. eps, hi +. eps))
      unsafe_rect

let search ?(budget = Budget.unlimited) ?(stats = Cegis.fresh_stats ()) spec template coeffs =
  Obs.Trace.with_span "level_search.search" @@ fun () ->
  (* A deadline/cancellation stop, from the budget check between
     iterations or from inside an SMT query: the caller then reports
     Timeout rather than Inconclusive. *)
  let interrupted = ref false in
  let interrupt stop =
    interrupted := true;
    stats.Cegis.budget_stop <- Some stop
  in
  let w_of_point x = Template.w_eval template coeffs x in
  let range =
    if Template.degree (Template.kind template) <= 2 then (
      (* Ellipsoidal sublevel sets: the analytic range seeds the search. *)
      match
        let p = Template.p_matrix template coeffs in
        let center = ellipsoid_center template coeffs p in
        Levelset.analytic_range_centered ~p ~center ~w_of_point ~x0_rect:spec.x0_rect
          ~unsafe_complement_rect:spec.unsafe_rect
      with
      | range -> Ok range
      | exception (Levelset.Not_definite | Invalid_argument _ | Lu.Singular) ->
        Error Cegis.Level_range_empty)
    else
      (* No ellipsoid to analyze: seed from the sampled heuristic range
         (the SMT bisection below still gates both conditions). *)
      Ok
        (Levelset.sampled_range ~w_of_point ~x0_rect:spec.x0_rect
           ~unsafe_complement_rect:spec.unsafe_rect)
  in
  match range with
  | Error e -> Error e
  | Ok { Levelset.l_min; l_max } ->
    if l_min >= l_max then Error Cegis.Level_range_empty
    else begin
      (* The bisection varies only the level constant, never the template
         shape, so both conditions are prepared ONCE with the level as a
         degenerate extra variable (bounds [level, level] per query) —
         tapes and symbolic partials are compiled here and reused by every
         iteration instead of being rebuilt per bisection.  A pinned
         variable is interval-exact, so enclosures, branching and verdicts
         are identical to the level-as-constant formulation.  Preparation
         is timed into its condition's stage to keep the run-report stage
         accounting whole. *)
      let level_var =
        let rec fresh v = if Array.exists (String.equal v) spec.vars then fresh (v ^ "_") else v in
        fresh "_level"
      in
      let prep_vars = Array.to_list spec.vars @ [ level_var ] in
      let prep stage span formula =
        Cegis.timed stats stage span (fun () ->
            Solver.prepare ~options:spec.smt ~vars:prep_vars formula)
      in
      let cond6_prep =
        prep Cegis.Condition6 "condition6"
          (Formula.gt (Template.w_expr template coeffs) (Expr.var level_var))
      in
      let cond7_prep =
        prep Cegis.Condition7 "condition7"
          (Formula.and_
             [
               Formula.le (Template.w_expr template coeffs) (Expr.var level_var);
               outside_unsafe spec;
             ])
      in
      (* Each query gets the shared budget; a deadline/cancellation stop is
         distinguished (via the solver's [interrupted]) from a plain Unknown. *)
      let solve stage span prepared level bounds =
        let verdict, st =
          Cegis.timed stats stage span (fun () ->
              Solver.solve_prepared ~budget prepared
                ~bounds:(bounds @ [ (level_var, level, level) ]))
        in
        (match (verdict, st.Solver.interrupted) with
        | Solver.Unknown, Some ((Budget.Deadline | Budget.Cancelled) as stop) -> interrupt stop
        | _ -> ());
        verdict
      in
      let rec refine lo hi iter =
        match Budget.check budget with
        | Some stop ->
          interrupt stop;
          Error (Cegis.Timeout "level")
        | None ->
        if iter > spec.max_iters then Error Cegis.Level_budget_exhausted
        else begin
          stats.Cegis.level_iterations <- stats.Cegis.level_iterations + 1;
          Obs.Metrics.incr c_bisections;
          let level = 0.5 *. (lo +. hi) in
          let timed_out_or kind =
            if !interrupted then Error (Cegis.Timeout "level")
            else Error (Cegis.Solver_inconclusive kind)
          in
          match
            solve Cegis.Condition6 "condition6" cond6_prep level
              (Cegis.rect_bounds spec.vars spec.x0_rect)
          with
          | Solver.Unknown -> timed_out_or "condition (6)"
          | Solver.Delta_sat _ ->
            if hi -. level < 1e-12 then Error Cegis.Level_budget_exhausted
            else refine level hi (iter + 1)
          | Solver.Unsat -> (
            (* Bounded query domain for this level: the ellipsoid bounding
               box for quadratic kinds, the boundary shell for Poly. *)
            let query_rect =
              condition7_query_rect template coeffs ~level ~unsafe_rect:spec.unsafe_rect
            in
            match
              solve Cegis.Condition7 "condition7" cond7_prep level
                (Cegis.rect_bounds spec.vars query_rect)
            with
            | Solver.Unknown -> timed_out_or "condition (7)"
            | Solver.Delta_sat _ ->
              if level -. lo < 1e-12 then Error Cegis.Level_budget_exhausted
              else refine lo level (iter + 1)
            | Solver.Unsat -> Ok level)
        end
      in
      refine l_min l_max 1
    end
