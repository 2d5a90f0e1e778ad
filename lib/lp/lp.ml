type relation = Le | Ge | Eq

type constr = { coeffs : float array; relation : relation; rhs : float }

type problem = {
  objective : float array;
  constraints : constr list;
  bounds : (float * float) array;
}

type solution = { x : float array; objective_value : float }

type result = Optimal of solution | Infeasible | Numerical_failure | Timeout of Budget.stop

let eps = 1e-9

exception Stop of Budget.stop

(* The basis factorization failed, or the dual iterate went negative
   beyond rounding: the solve cannot be trusted to classify the instance. *)
exception Numerical

(* Pivot totals are recorded per solve (merged count, not per iteration),
   keeping the inner loop free of instrumentation. *)
let c_pivots = Obs.Metrics.counter "lp.pivots"

let c_cold_retries = Obs.Metrics.counter "lp.cold_retries"

(* Arity disagreements make the point malformed rather than infeasible —
   report [false] instead of letting [Array.for_all2] (or an out-of-range
   coefficient index) raise.  Tolerances are relative: a constraint whose
   terms are O(1e9) accumulates rounding far above any fixed absolute
   cutoff, so each row's slack scales with the magnitude of its terms (and
   each bound's with the magnitude of the bound). *)
let check_feasible ?(tol = 1e-7) p x =
  let n = Array.length p.objective in
  Array.length x = n
  && Array.length p.bounds = n
  && List.for_all (fun c -> Array.length c.coeffs = n) p.constraints
  && Array.for_all2
       (fun xi (lo, hi) ->
         xi >= lo -. (tol *. (1.0 +. Float.abs lo))
         && xi <= hi +. (tol *. (1.0 +. Float.abs hi)))
       x p.bounds
  && List.for_all
       (fun c ->
         let lhs = ref 0.0 and scale = ref (Float.abs c.rhs) in
         Array.iteri
           (fun j a ->
             let term = a *. x.(j) in
             lhs := !lhs +. term;
             scale := !scale +. Float.abs term)
           c.coeffs;
         let slack = tol *. (1.0 +. !scale) in
         match c.relation with
         | Le -> !lhs <= c.rhs +. slack
         | Ge -> !lhs >= c.rhs -. slack
         | Eq -> Float.abs (!lhs -. c.rhs) <= slack)
       p.constraints

(* --- Revised simplex (dual-column formulation) ----------------------------

   The synthesis LPs have few variables (template dimension + margin,
   n ≲ 30) but hundreds-to-thousands of rows, and every CEGIS iteration
   re-solves the previous LP plus a handful of new cut rows.  Rewrite
   every constraint (both directions of an equality) and both sides of
   every variable's box as a row [g·x ≥ h] and solve the DUAL

       min Σ (-h_i) y_i    s.t.    Σ y_i g_i = c,    y ≥ 0

   with a revised primal simplex: the basis is n×n (tiny), LU-factorized
   once and updated by product-form eta vectors with periodic
   refactorization; the M columns are priced on demand against the
   simplex multipliers π; and at dual optimality x* = -π is the primal
   optimum (the basic columns are the active rows, and strong duality
   gives c·x* equal to the dual value).

   Every variable lies in a finite box, so a feasible cold basis always
   exists: for each x_j take its lower-bound row (g = e_j) when c_j ≥ 0
   and its upper-bound row (g = -e_j) otherwise.  Then B = diag(±1) and
   y_B = |c| ≥ 0 — no artificial columns, no phase 1.  Adding a primal
   constraint adds a dual COLUMN, which leaves the previous optimal basis
   feasible (y_B = B⁻¹c is untouched), so a warm-started resolve typically
   takes a handful of pivots — the basis {!Incremental} threads across
   CEGIS iterations.

   Status mapping: dual unbounded ⇒ primal infeasible.  The dual objective
   is bounded below by weak duality against any primal point, and the box
   keeps the primal bounded, so the primal is never unbounded. *)

type rev_col = { g : float array; h : float }

module Rev = struct
  type t = {
    n : int;
    obj : float array;
    (* Capacity-doubling storage.  Column 2j is the row x_j ≥ lo_j and
       column 2j+1 is -x_j ≥ -hi_j: the cold basis picks one per variable. *)
    mutable cols : rev_col array;
    mutable ncols : int;
    mutable zero_row_infeasible : bool; (* saw 0·x ≥ h with h > 0 *)
    basis : int array; (* length n, valid iff has_basis *)
    mutable has_basis : bool;
  }

  let dummy_col = { g = [||]; h = 0.0 }

  let add_col t g h =
    (* Equilibrate to O(1) max-norm, so rows from very small or very large
       states do not produce badly scaled pivots; rescaling a primal row
       leaves x* untouched. *)
    let m = Array.fold_left (fun acc a -> Float.max acc (Float.abs a)) 0.0 g in
    if m = 0.0 then begin
      (* 0·x ≥ h is vacuous for h ≤ 0 and structurally infeasible
         otherwise (the row has no coefficient scale to be relative to). *)
      if h > 1e-9 then t.zero_row_infeasible <- true
    end
    else begin
      let g, h =
        if m < 1e-3 || m > 1e3 then (Array.map (fun a -> a /. m) g, h /. m)
        else (Array.copy g, h)
      in
      if t.ncols = Array.length t.cols then begin
        let cols = Array.make (max 16 (2 * t.ncols)) dummy_col in
        Array.blit t.cols 0 cols 0 t.ncols;
        t.cols <- cols
      end;
      t.cols.(t.ncols) <- { g; h };
      t.ncols <- t.ncols + 1
    end

  let add_constr t c =
    if Array.length c.coeffs <> t.n then invalid_arg "Lp: constraint arity mismatch";
    match c.relation with
    | Ge -> add_col t c.coeffs c.rhs
    | Le -> add_col t (Array.map Float.neg c.coeffs) (-.c.rhs)
    | Eq ->
      add_col t c.coeffs c.rhs;
      add_col t (Array.map Float.neg c.coeffs) (-.c.rhs)

  (* The one validation site: arities, and every bound finite with lo ≤ hi
     (a NaN side fails [Float.is_finite]). *)
  let create p =
    let n = Array.length p.objective in
    if Array.length p.bounds <> n then invalid_arg "Lp: bounds arity mismatch";
    Array.iter
      (fun (lo, hi) ->
        if not (Float.is_finite lo && Float.is_finite hi) then
          invalid_arg "Lp: non-finite variable bound";
        if lo > hi then invalid_arg "Lp: empty variable bound")
      p.bounds;
    let t =
      {
        n;
        obj = Array.copy p.objective;
        cols = [||];
        ncols = 0;
        zero_row_infeasible = false;
        basis = Array.make n 0;
        has_basis = false;
      }
    in
    Array.iteri
      (fun j (lo, hi) ->
        let unit s = Array.init n (fun i -> if i = j then s else 0.0) in
        add_col t (unit 1.0) lo;
        add_col t (unit (-1.0)) (-.hi))
      p.bounds;
    List.iter (add_constr t) p.constraints;
    t

  (* Solve from the saved basis ([warm]) or the box's cold basis.  Raises
     [Numerical] when the factorization fails or the dual iterate goes
     stale, and [Stop] when the budget or pivot limit fires. *)
  let solve ~budget ?max_pivots ~warm t =
    if t.zero_row_infeasible then Infeasible
    else if t.n = 0 then Optimal { x = [||]; objective_value = 0.0 }
    else begin
      let n = t.n in
      let pivots = ref 0 in
      let cmax =
        1.0 +. Array.fold_left (fun a c -> Float.max a (Float.abs c)) 0.0 t.obj
      in
      let in_basis = Array.make t.ncols false in
      let basis =
        if warm then Array.copy t.basis
        else Array.init n (fun j -> if t.obj.(j) >= 0.0 then 2 * j else (2 * j) + 1)
      in
      Array.iter (fun id -> in_basis.(id) <- true) basis;
      (* Basis factorization: LU of the n×n matrix of basic columns, plus
         product-form eta updates; refactorized when the eta file fills,
         when an eta pivot is too small to trust, and once at optimality to
         tighten the reported x*. *)
      let bmat = Mat.zeros n n in
      let fac = ref None in
      let max_etas = 64 in
      let eta_r = Array.make max_etas 0 in
      let eta_w = Array.make max_etas [||] in
      let n_etas = ref 0 in
      let refactor () =
        for k = 0 to n - 1 do
          let g = t.cols.(basis.(k)).g in
          for i = 0 to n - 1 do
            bmat.(i).(k) <- g.(i)
          done
        done;
        n_etas := 0;
        fac := Some (try Lu.factorize bmat with Lu.Singular -> raise Numerical)
      in
      let the_fac () = match !fac with Some f -> f | None -> assert false in
      let ftran b =
        let z = Lu.solve_factored (the_fac ()) b in
        for k = 0 to !n_etas - 1 do
          let r = eta_r.(k) and w = eta_w.(k) in
          let zr = z.(r) /. w.(r) in
          for i = 0 to n - 1 do
            if i <> r then z.(i) <- z.(i) -. (w.(i) *. zr)
          done;
          z.(r) <- zr
        done;
        z
      in
      let btran b =
        let d = Array.copy b in
        for k = !n_etas - 1 downto 0 do
          let r = eta_r.(k) and w = eta_w.(k) in
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            if i <> r then s := !s +. (w.(i) *. d.(i))
          done;
          d.(r) <- (d.(r) -. !s) /. w.(r)
        done;
        Lu.solve_transposed_factored (the_fac ()) d
      in
      let y = Array.make n 0.0 in
      (* Recompute y_B = B⁻¹c; tiny negatives are clamped, genuinely
         negative components mean the basis is numerically stale. *)
      let recompute_y () =
        let fresh = ftran t.obj in
        for k = 0 to n - 1 do
          let v = fresh.(k) in
          if v < 0.0 then
            if v > -.(1e-7 *. cmax) then fresh.(k) <- 0.0 else raise Numerical
        done;
        Array.blit fresh 0 y 0 n
      in
      let d_b = Array.make n 0.0 in
      let multipliers () =
        for k = 0 to n - 1 do
          d_b.(k) <- -.t.cols.(basis.(k)).h
        done;
        btran d_b
      in
      (* Dantzig pricing; after a stretch of stalling (non-improving)
         pivots, Bland's rule (lowest eligible index) takes over for the
         rest of the solve.  Sticky Bland forfeits a little pricing quality
         on pathological LPs but guarantees termination. *)
      let stall = ref 0 and bland_on = ref false in
      let rec iterate () =
        (match Budget.check budget with
        | Some s -> raise (Stop s)
        | None -> ());
        (match max_pivots with
        | Some limit when !pivots >= limit -> raise (Stop Budget.Branch_budget)
        | _ -> ());
        if (not !bland_on) && !stall > (2 * n) + 32 then bland_on := true;
        let bland = !bland_on in
        let pi = multipliers () in
        let entering = ref (-1) and best_r = ref 0.0 in
        (try
           for i = 0 to t.ncols - 1 do
             if not in_basis.(i) then begin
               let col = t.cols.(i) in
               let d_i = -.col.h in
               let r = ref d_i in
               let g = col.g in
               for j = 0 to n - 1 do
                 r := !r -. (pi.(j) *. g.(j))
               done;
               if !r < -.(eps *. (1.0 +. Float.abs d_i)) then
                 if bland then begin
                   entering := i;
                   raise Exit
                 end
                 else if !r < !best_r then begin
                   best_r := !r;
                   entering := i
                 end
             end
           done
         with Exit -> ());
        if !entering < 0 then `Opt
        else begin
          let e = !entering in
          let w = ftran t.cols.(e).g in
          (* Ratio test; among (near-)ties prefer the largest pivot
             magnitude, or under Bland the smallest basis id. *)
          let leave = ref (-1) and best_ratio = ref infinity in
          for k = 0 to n - 1 do
            if w.(k) > eps then begin
              let ratio = y.(k) /. w.(k) in
              let tie =
                Float.abs (ratio -. !best_ratio) <= eps *. (1.0 +. Float.abs !best_ratio)
              in
              if ratio < !best_ratio -. eps || !leave < 0 then begin
                leave := k;
                best_ratio := ratio
              end
              else if tie then begin
                let better =
                  if bland then basis.(k) < basis.(!leave)
                  else Float.abs w.(k) > Float.abs w.(!leave)
                in
                if better then begin
                  leave := k;
                  best_ratio := ratio
                end
              end
            end
          done;
          if !leave < 0 then `Unbdd
          else begin
            let l = !leave in
            let theta = Float.max 0.0 !best_ratio in
            if theta > eps then stall := 0 else incr stall;
            incr pivots;
            for k = 0 to n - 1 do
              y.(k) <- Float.max 0.0 (y.(k) -. (theta *. w.(k)))
            done;
            y.(l) <- theta;
            in_basis.(basis.(l)) <- false;
            in_basis.(e) <- true;
            basis.(l) <- e;
            if Float.abs w.(l) >= 1e-7 && !n_etas < max_etas then begin
              eta_r.(!n_etas) <- l;
              eta_w.(!n_etas) <- w;
              incr n_etas
            end
            else begin
              refactor ();
              recompute_y ()
            end;
            iterate ()
          end
        end
      in
      Fun.protect ~finally:(fun () -> Obs.Metrics.add c_pivots !pivots) @@ fun () ->
      refactor ();
      recompute_y ();
      let outcome = iterate () in
      (* Dual unbounded means the primal rows admit no feasible point; the
         basis is still dual-feasible, so it is kept for warm restarts
         after further cuts either way. *)
      Array.blit basis 0 t.basis 0 n;
      t.has_basis <- true;
      match outcome with
      | `Unbdd -> Infeasible
      | `Opt ->
        (* Refactorize once and recompute π from fresh factors so the
           reported optimum is not polluted by the eta file. *)
        refactor ();
        let x = Array.map Float.neg (multipliers ()) in
        let v = ref 0.0 in
        for j = 0 to n - 1 do
          v := !v +. (t.obj.(j) *. x.(j))
        done;
        Optimal { x; objective_value = !v }
    end
end

(* --- Incremental solves ---------------------------------------------------

   The CEGIS loop's contract: build once from the trace rows, then
   [add_constraint] each counterexample cut and [resolve].  A resolve
   warm-starts from the previous optimal basis (a new primal row is a new
   dual column — the old basis stays feasible).  A warm solve that fails
   numerically, or whose optimum fails the feasibility guard, is retried
   once from the cold basis; if that fails too the result is
   [Numerical_failure].  The accumulated problem is kept for the guard. *)
module Incremental = struct
  type t = { base : problem; mutable added_rev : constr list (* newest first *); rev : Rev.t }

  let create p = { base = p; added_rev = []; rev = Rev.create p }

  let problem t =
    { t.base with constraints = t.base.constraints @ List.rev t.added_rev }

  let add_constraint t c =
    Rev.add_constr t.rev c;
    t.added_rev <- c :: t.added_rev

  let nrows t = List.length t.base.constraints + List.length t.added_rev

  let warm t = t.rev.Rev.has_basis

  let attempt ~budget ?max_pivots ~warm t =
    match Rev.solve ~budget ?max_pivots ~warm t.rev with
    | Optimal s when not (check_feasible ~tol:1e-6 (problem t) s.x) -> None
    | result -> Some result
    | exception Numerical -> None

  let resolve ?(budget = Budget.unlimited) ?max_pivots t =
    Obs.Trace.with_span "lp.minimize" @@ fun () ->
    let from_warm = warm t in
    let solved () =
      match attempt ~budget ?max_pivots ~warm:from_warm t with
      | None when from_warm ->
        Obs.Metrics.incr c_cold_retries;
        attempt ~budget ?max_pivots ~warm:false t
      | first -> first
    in
    match solved () with
    | Some result -> result
    | None ->
      t.rev.Rev.has_basis <- false;
      Numerical_failure
    | exception Stop s -> Timeout s
end

let minimize ?budget ?max_pivots p = Incremental.resolve ?budget ?max_pivots (Incremental.create p)
