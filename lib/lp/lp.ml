type relation = Le | Ge | Eq

type constr = { coeffs : float array; relation : relation; rhs : float }

type problem = {
  objective : float array;
  constraints : constr list;
  bounds : (float * float) array;
}

type solution = { x : float array; objective_value : float }

type result = Optimal of solution | Infeasible | Unbounded | Timeout of Budget.stop

let free = (neg_infinity, infinity)

let nonneg = (0.0, infinity)

let eps = 1e-9

(* --- Standard-form translation -------------------------------------------

   Original variable x_j with bounds (lo, hi) maps to non-negative standard
   variables:
     finite lo:            x_j = lo + y_k            (hi finite adds y_k <= hi-lo)
     lo = -inf, finite hi: x_j = hi - y_k
     free:                 x_j = y_k - y_{k+1}
   The recovery table records how to rebuild x from y. *)

type var_map =
  | Shifted of int * float (* x = lo + y_k *)
  | Mirrored of int * float (* x = hi - y_k *)
  | Split of int * int (* x = y_k - y_k' *)

let translate p =
  let n = Array.length p.objective in
  List.iter
    (fun c ->
      if Array.length c.coeffs <> n then invalid_arg "Lp: constraint arity mismatch")
    p.constraints;
  if Array.length p.bounds <> n then invalid_arg "Lp: bounds arity mismatch";
  let next = ref 0 in
  let fresh () =
    let k = !next in
    incr next;
    k
  in
  let maps =
    Array.map
      (fun (lo, hi) ->
        if lo > hi then invalid_arg "Lp: empty variable bound";
        if Float.is_finite lo then Shifted (fresh (), lo)
        else if Float.is_finite hi then Mirrored (fresh (), hi)
        else Split (fresh (), fresh ()))
      p.bounds
  in
  let ny = !next in
  (* Rewrite a row a·x ⋈ b into standard variables; returns (row, rhs shift). *)
  let rewrite coeffs =
    let row = Array.make ny 0.0 in
    let shift = ref 0.0 in
    Array.iteri
      (fun j a ->
        if a <> 0.0 then
          match maps.(j) with
          | Shifted (k, lo) ->
            row.(k) <- row.(k) +. a;
            shift := !shift +. (a *. lo)
          | Mirrored (k, hi) ->
            row.(k) <- row.(k) -. a;
            shift := !shift +. (a *. hi)
          | Split (k, k') ->
            row.(k) <- row.(k) +. a;
            row.(k') <- row.(k') -. a)
      coeffs;
    (row, !shift)
  in
  let rows = ref [] in
  List.iter
    (fun c ->
      let row, shift = rewrite c.coeffs in
      rows := (row, c.relation, c.rhs -. shift) :: !rows)
    p.constraints;
  (* Upper bounds for doubly bounded variables become extra Le rows. *)
  Array.iteri
    (fun j (lo, hi) ->
      if Float.is_finite lo && Float.is_finite hi then begin
        match maps.(j) with
        | Shifted (k, _) ->
          let row = Array.make ny 0.0 in
          row.(k) <- 1.0;
          rows := (row, Le, hi -. lo) :: !rows
        | Mirrored _ | Split _ -> assert false
      end)
    p.bounds;
  let obj_row, obj_shift = rewrite p.objective in
  (maps, ny, List.rev !rows, obj_row, obj_shift)

let recover maps y =
  Array.map
    (function
      | Shifted (k, lo) -> lo +. y.(k)
      | Mirrored (k, hi) -> hi -. y.(k)
      | Split (k, k') -> y.(k) -. y.(k'))
    maps

(* --- Tableau simplex ------------------------------------------------------

   Tableau layout: m rows of structural+slack+artificial coefficients with
   rhs in the last column; a cost row is maintained separately by pivoting.
   Bland's rule (lowest eligible index) guarantees termination. *)

type tableau = {
  a : float array array; (* m x (n+1), last column = rhs >= 0 invariant *)
  basis : int array; (* basic variable of each row *)
  cost : float array; (* reduced-cost row, length n+1 (last = -objective) *)
  ncols : int; (* structural + slack + artificial count *)
}

let pivot t ~row ~col =
  let n1 = t.ncols + 1 in
  let p = t.a.(row).(col) in
  for j = 0 to n1 - 1 do
    t.a.(row).(j) <- t.a.(row).(j) /. p
  done;
  for i = 0 to Array.length t.a - 1 do
    if i <> row then begin
      let factor = t.a.(i).(col) in
      if factor <> 0.0 then
        for j = 0 to n1 - 1 do
          t.a.(i).(j) <- t.a.(i).(j) -. (factor *. t.a.(row).(j))
        done
    end
  done;
  let factor = t.cost.(col) in
  if factor <> 0.0 then
    for j = 0 to n1 - 1 do
      t.cost.(j) <- t.cost.(j) -. (factor *. t.a.(row).(j))
    done;
  t.basis.(row) <- col

type phase_outcome = Opt | Unbdd | Stopped of Budget.stop

exception Stop of Budget.stop

(* Practical primal simplex: Dantzig pricing with largest-pivot
   tie-breaking in the ratio test (keeps pivots well-scaled on the heavily
   degenerate LPs the barrier synthesis produces), falling back to Bland's
   rule after a stretch of stalling (non-improving) iterations so
   termination is guaranteed.  [budget] and [pivots] bound the iteration
   count: each pivot is O(m·n), so a cycling or huge LP is cut off with a
   structured [Stopped] instead of spinning past its deadline. *)
(* Pivot totals are recorded per simplex run (merged count, not per
   iteration), keeping the inner loop free of instrumentation. *)
let c_pivots = Obs.Metrics.counter "lp.pivots"

let run_simplex ?(budget = Budget.unlimited) ?max_pivots t ~allowed =
  let m = Array.length t.a in
  let stall = ref 0 in
  (* Once the stall stretch trips Bland's rule it stays on for the rest of
     the run: an improving pivot used to reset [stall] and hand control
     back to Dantzig pricing, so a degenerate cycle entered *after* that
     reset could spin for another full stall stretch each time — in the
     worst case until the pivot budget fired.  Sticky Bland forfeits a
     little pricing quality on pathological LPs but restores the
     unconditional termination guarantee. *)
  let bland_on = ref false in
  let pivots = ref 0 in
  let rec iterate () =
    (match Budget.check budget with
    | Some s -> raise (Stop s)
    | None -> ());
    (match max_pivots with
    | Some limit when !pivots >= limit -> raise (Stop Budget.Branch_budget)
    | _ -> ());
    if (not !bland_on) && !stall > 2 * (m + t.ncols) then bland_on := true;
    let bland = !bland_on in
    (* Entering column. *)
    let entering = ref (-1) in
    if bland then begin
      try
        for j = 0 to t.ncols - 1 do
          if allowed j && t.cost.(j) < -.eps then begin
            entering := j;
            raise Exit
          end
        done
      with Exit -> ()
    end
    else begin
      let best_cost = ref (-.eps) in
      for j = 0 to t.ncols - 1 do
        if allowed j && t.cost.(j) < !best_cost then begin
          best_cost := t.cost.(j);
          entering := j
        end
      done
    end;
    if !entering < 0 then Opt
    else begin
      let col = !entering in
      (* Leaving row: minimum ratio.  Among (near-)ties prefer the largest
         pivot magnitude (numerical stability); under Bland, the smallest
         basis index. *)
      let best = ref (-1) and best_ratio = ref infinity in
      for i = 0 to m - 1 do
        let aic = t.a.(i).(col) in
        if aic > eps then begin
          let ratio = t.a.(i).(t.ncols) /. aic in
          let tie = Float.abs (ratio -. !best_ratio) <= eps *. (1.0 +. Float.abs !best_ratio) in
          if ratio < !best_ratio -. eps || !best < 0 then begin
            best := i;
            best_ratio := ratio
          end
          else if tie then begin
            let better =
              if bland then t.basis.(i) < t.basis.(!best)
              else Float.abs aic > Float.abs t.a.(!best).(col)
            in
            if better then begin
              best := i;
              best_ratio := ratio
            end
          end
        end
      done;
      if !best < 0 then Unbdd
      else begin
        let improving = !best_ratio > eps in
        if improving then stall := 0 else incr stall;
        incr pivots;
        pivot t ~row:!best ~col;
        iterate ()
      end
    end
  in
  let outcome = try iterate () with Stop s -> Stopped s in
  Obs.Metrics.add c_pivots !pivots;
  outcome

let minimize_exn ~budget ?max_pivots p =
  let maps, ny, rows, obj_row, obj_shift = translate p in
  let m = List.length rows in
  if m = 0 then begin
    (* Unconstrained: optimum is at a bound, or unbounded if any objective
       coefficient pushes past an infinite bound. *)
    let x = Array.make (Array.length p.objective) 0.0 in
    let unbounded = ref false in
    Array.iteri
      (fun j c ->
        let lo, hi = p.bounds.(j) in
        if c > 0.0 then
          if Float.is_finite lo then x.(j) <- lo else unbounded := true
        else if c < 0.0 then
          if Float.is_finite hi then x.(j) <- hi else unbounded := true
        else x.(j) <- (if Float.is_finite lo then lo else if Float.is_finite hi then hi else 0.0))
      p.objective;
    if !unbounded then Unbounded
    else begin
      let v = Array.fold_left ( +. ) 0.0 (Array.mapi (fun j c -> c *. x.(j)) p.objective) in
      Optimal { x; objective_value = v }
    end
  end
  else begin
    (* Count slack and artificial columns. *)
    let rows_arr = Array.of_list rows in
    (* Row equilibration: scale each row to unit max-norm so that rows from
       very small or very large states do not produce badly scaled pivots. *)
    let rows_arr =
      Array.map
        (fun (row, rel, rhs) ->
          let m = Array.fold_left (fun acc a -> Float.max acc (Float.abs a)) (Float.abs rhs) row in
          if m > 0.0 && (m < 1e-3 || m > 1e3) then
            (Array.map (fun a -> a /. m) row, rel, rhs /. m)
          else (row, rel, rhs))
        rows_arr
    in
    (* Normalize rhs >= 0. *)
    let rows_arr =
      Array.map
        (fun (row, rel, rhs) ->
          if rhs < 0.0 then
            ( Array.map (fun a -> -.a) row,
              (match rel with Le -> Ge | Ge -> Le | Eq -> Eq),
              -.rhs )
          else (row, rel, rhs))
        rows_arr
    in
    let n_slack = Array.fold_left (fun k (_, rel, _) -> match rel with Le | Ge -> k + 1 | Eq -> k) 0 rows_arr in
    let n_art =
      Array.fold_left (fun k (_, rel, _) -> match rel with Ge | Eq -> k + 1 | Le -> k) 0 rows_arr
    in
    let ncols = ny + n_slack + n_art in
    let a = Array.make_matrix m (ncols + 1) 0.0 in
    let basis = Array.make m (-1) in
    let slack_next = ref ny and art_next = ref (ny + n_slack) in
    Array.iteri
      (fun i (row, rel, rhs) ->
        Array.blit row 0 a.(i) 0 ny;
        a.(i).(ncols) <- rhs;
        (match rel with
        | Le ->
          let s = !slack_next in
          incr slack_next;
          a.(i).(s) <- 1.0;
          basis.(i) <- s
        | Ge ->
          let s = !slack_next in
          incr slack_next;
          a.(i).(s) <- -1.0;
          let art = !art_next in
          incr art_next;
          a.(i).(art) <- 1.0;
          basis.(i) <- art
        | Eq ->
          let art = !art_next in
          incr art_next;
          a.(i).(art) <- 1.0;
          basis.(i) <- art))
      rows_arr;
    (* Phase 1: minimize the sum of artificials. *)
    let cost1 = Array.make (ncols + 1) 0.0 in
    for j = ny + n_slack to ncols - 1 do
      cost1.(j) <- 1.0
    done;
    let t = { a; basis; cost = cost1; ncols } in
    (* Price out the initial artificial basis so reduced costs are
       consistent. *)
    for i = 0 to m - 1 do
      if basis.(i) >= ny + n_slack then
        for j = 0 to ncols do
          t.cost.(j) <- t.cost.(j) -. t.a.(i).(j)
        done
    done;
    (match run_simplex ~budget ?max_pivots t ~allowed:(fun _ -> true) with
    | Unbdd -> assert false (* phase-1 objective is bounded below by 0 *)
    | Stopped s -> raise (Stop s)
    | Opt -> ());
    let phase1_value = -.t.cost.(ncols) in
    (* The phase-1 residual lives in *equilibrated* units: a row divided by
       its max-norm reports violations shrunk by the same factor, so a
       fixed absolute cutoff would declare Optimal on a system whose rows
       were scaled down by 1e3+ while genuinely infeasible at their own
       scale.  Make the cutoff relative to the right-hand sides of the rows
       actually violated at the phase-1 optimum (a basic artificial's value
       IS its row's violation), clamped to [1e-3, 1] so unit-scale problems
       keep the historical 1e-7 threshold while a violation comparable to
       its own row's tiny rhs is no longer mistaken for pivoting noise. *)
    let viol_rhs_scale =
      let scale = ref 0.0 in
      for i = 0 to m - 1 do
        if basis.(i) >= ny + n_slack && t.a.(i).(ncols) > eps then begin
          let _, _, rhs = rows_arr.(i) in
          scale := Float.max !scale (Float.abs rhs)
        end
      done;
      !scale
    in
    let infeas_tol = 1e-7 *. Float.min 1.0 (Float.max 1e-3 viol_rhs_scale) in
    if phase1_value > infeas_tol then Infeasible
    else begin
      (* Drive every artificial still basic (at zero level) out of the
         basis; rows where that is impossible are redundant and get
         deleted.  After this no artificial is basic, and artificial
         columns are barred from entering in phase 2, so all artificials
         stay pinned at zero — the phase-2 iterates remain feasible for the
         original problem. *)
      let art_lo = ny + n_slack in
      let keep_rows = ref [] in
      for i = 0 to m - 1 do
        if t.basis.(i) >= art_lo then begin
          let pivot_col = ref (-1) in
          (try
             for j = 0 to art_lo - 1 do
               if Float.abs t.a.(i).(j) > eps then begin
                 pivot_col := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !pivot_col >= 0 then begin
            pivot t ~row:i ~col:!pivot_col;
            keep_rows := i :: !keep_rows
          end
          (* else: redundant row, dropped below *)
        end
        else keep_rows := i :: !keep_rows
      done;
      let keep_rows = Array.of_list (List.rev !keep_rows) in
      let a2 = Array.map (fun i -> t.a.(i)) keep_rows in
      let basis2 = Array.map (fun i -> t.basis.(i)) keep_rows in
      let m2 = Array.length keep_rows in
      (* Phase 2: restore the real objective, priced out over the basis. *)
      let cost2 = Array.make (ncols + 1) 0.0 in
      Array.blit obj_row 0 cost2 0 ny;
      for i = 0 to m2 - 1 do
        let b = basis2.(i) in
        if b < ncols && cost2.(b) <> 0.0 then begin
          let factor = cost2.(b) in
          for j = 0 to ncols do
            cost2.(j) <- cost2.(j) -. (factor *. a2.(i).(j))
          done
        end
      done;
      let t2 = { a = a2; basis = basis2; cost = cost2; ncols } in
      match run_simplex ~budget ?max_pivots t2 ~allowed:(fun j -> j < art_lo) with
      | Unbdd -> Unbounded
      | Stopped s -> raise (Stop s)
      | Opt ->
        let y = Array.make ny 0.0 in
        for i = 0 to m2 - 1 do
          if t2.basis.(i) < ny then y.(t2.basis.(i)) <- t2.a.(i).(ncols)
        done;
        let x = recover maps y in
        let v =
          obj_shift
          +. Array.fold_left ( +. ) 0.0 (Array.mapi (fun k c -> c *. y.(k)) obj_row)
        in
        Optimal { x; objective_value = v }
    end
  end

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
   re-solves the previous LP plus a handful of new cut rows.  On that
   shape the dense tableau above pays O(rows²) per pivot and a full
   phase 1 per solve.  Instead, rewrite every constraint (both directions
   of an equality) and every finite bound as a row [g·x ≥ h] and solve
   the DUAL

       min Σ (-h_i) y_i    s.t.    Σ y_i g_i = c,    y ≥ 0

   with a revised primal simplex: the basis is n×n (tiny), LU-factorized
   once and updated by product-form eta vectors with periodic
   refactorization; the M columns are priced on demand against the
   simplex multipliers π; and at dual optimality x* = -π is the primal
   optimum (the basic columns are the active rows, and strong duality
   gives c·x* equal to the dual value).

   Warm starts fall out of the formulation: adding a primal constraint is
   adding a dual COLUMN, which leaves the previous optimal basis feasible
   (y_B = B⁻¹c is untouched), so a warm-started resolve needs no phase 1
   and typically a handful of pivots — the basis token {!Incremental}
   threads across CEGIS iterations.

   Status mapping: dual unbounded ⇒ primal infeasible.  A dual-infeasible
   cold start (the rows' cone does not span c — possible only with
   infinite bounds, never for the box-bounded synthesis LPs) is
   structurally ambiguous between primal Infeasible and Unbounded, so the
   solver falls back to the tableau, which separates the two. *)

type engine = Tableau | Revised

(* Signal that the revised engine cannot classify the instance; the caller
   re-solves with the tableau oracle. *)
exception Rev_fallback

type rev_col = { g : float array; h : float }

module Rev = struct
  type t = {
    n : int;
    obj : float array;
    lo_col : int array; (* column id of the x_j ≥ lo_j row, -1 when lo = -∞ *)
    hi_col : int array; (* column id of the -x_j ≥ -hi_j row, -1 when hi = ∞ *)
    mutable cols : rev_col array; (* capacity-doubling storage *)
    mutable ncols : int;
    mutable zero_row_infeasible : bool; (* saw 0·x ≥ h with h > 0 *)
    mutable basis : int array; (* length n, valid iff has_basis *)
    mutable has_basis : bool;
  }

  let dummy_col = { g = [||]; h = 0.0 }

  let add_col t g h =
    (* Equilibrate to O(1) max-norm — same rationale as the tableau's row
       scaling; rescaling a primal row leaves x* untouched. *)
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

  let create p =
    let n = Array.length p.objective in
    if Array.length p.bounds <> n then invalid_arg "Lp: bounds arity mismatch";
    Array.iter
      (fun (lo, hi) -> if lo > hi then invalid_arg "Lp: empty variable bound")
      p.bounds;
    let t =
      {
        n;
        obj = Array.copy p.objective;
        lo_col = Array.make n (-1);
        hi_col = Array.make n (-1);
        cols = [||];
        ncols = 0;
        zero_row_infeasible = false;
        basis = Array.make (max n 1) min_int;
        has_basis = false;
      }
    in
    (* Bound rows first: their ids seed the trivially feasible cold basis. *)
    Array.iteri
      (fun j (lo, hi) ->
        if Float.is_finite lo then begin
          let g = Array.make n 0.0 in
          g.(j) <- 1.0;
          t.lo_col.(j) <- t.ncols;
          add_col t g lo
        end;
        if Float.is_finite hi then begin
          let g = Array.make n 0.0 in
          g.(j) <- -1.0;
          t.hi_col.(j) <- t.ncols;
          add_col t g (-.hi)
        end)
      p.bounds;
    List.iter (add_constr t) p.constraints;
    t

  (* Artificial basis columns ±e_j are encoded as negative ids (< -1) so
     they need no storage; they exist only during a cold start and are
     never persisted into a warm basis. *)
  let art_id j sign = -((2 * j) + if sign > 0.0 then 2 else 3)

  let art_var id = (-id - 2) / 2

  let art_sign id = if -id mod 2 = 0 then 1.0 else -1.0

  let solve ?(budget = Budget.unlimited) ?max_pivots t =
    if t.zero_row_infeasible then Infeasible
    else if t.n = 0 then Optimal { x = [||]; objective_value = 0.0 }
    else begin
      let n = t.n in
      let total_pivots = ref 0 in
      let cmax =
        1.0 +. Array.fold_left (fun a c -> Float.max a (Float.abs c)) 0.0 t.obj
      in
      let in_basis = Array.make t.ncols false in
      let basis = Array.make n min_int in
      let set_basis src =
        Array.fill in_basis 0 t.ncols false;
        Array.blit src 0 basis 0 n;
        Array.iter (fun id -> if id >= 0 then in_basis.(id) <- true) basis
      in
      let cold_basis () =
        Array.init n (fun j ->
            if t.obj.(j) >= 0.0 then
              if t.lo_col.(j) >= 0 then t.lo_col.(j) else art_id j 1.0
            else if t.hi_col.(j) >= 0 then t.hi_col.(j)
            else art_id j (-1.0))
      in
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
          let id = basis.(k) in
          if id >= 0 then begin
            let g = t.cols.(id).g in
            for i = 0 to n - 1 do
              bmat.(i).(k) <- g.(i)
            done
          end
          else begin
            for i = 0 to n - 1 do
              bmat.(i).(k) <- 0.0
            done;
            bmat.(art_var id).(k) <- art_sign id
          end
        done;
        n_etas := 0;
        fac := Some (Lu.factorize bmat)
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
      let recompute_y ~strict =
        let fresh = ftran t.obj in
        let ok = ref true in
        for k = 0 to n - 1 do
          let v = fresh.(k) in
          if v < 0.0 then
            if v > -.(1e-7 *. cmax) then fresh.(k) <- 0.0
            else ok := false
        done;
        if !ok then Array.blit fresh 0 y 0 n
        else if strict then raise Rev_fallback;
        !ok
      in
      let d_of ~phase1 id =
        if id < 0 then if phase1 then 1.0 else 0.0
        else if phase1 then 0.0
        else -.t.cols.(id).h
      in
      let d_b = Array.make n 0.0 in
      (* One simplex phase: Dantzig pricing with sticky-Bland anti-cycling
         (the same stall policy as the tableau's [run_simplex]). *)
      let run_phase ~phase1 =
        let stall = ref 0 and bland_on = ref false and pivots = ref 0 in
        let rec iterate () =
          (match Budget.check budget with
          | Some s -> raise (Stop s)
          | None -> ());
          (match max_pivots with
          | Some limit when !pivots >= limit -> raise (Stop Budget.Branch_budget)
          | _ -> ());
          if (not !bland_on) && !stall > (2 * n) + 32 then bland_on := true;
          let bland = !bland_on in
          for k = 0 to n - 1 do
            d_b.(k) <- d_of ~phase1 basis.(k)
          done;
          let pi = btran d_b in
          (* Price the non-basic columns (artificials never re-enter). *)
          let entering = ref (-1) and best_r = ref 0.0 in
          (try
             for i = 0 to t.ncols - 1 do
               if not in_basis.(i) then begin
                 let col = t.cols.(i) in
                 let d_i = if phase1 then 0.0 else -.col.h in
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
               magnitude, or under Bland the smallest basis id (artificial
               ids are negative, so they drain first). *)
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
              incr total_pivots;
              for k = 0 to n - 1 do
                y.(k) <- Float.max 0.0 (y.(k) -. (theta *. w.(k)))
              done;
              y.(l) <- theta;
              if basis.(l) >= 0 then in_basis.(basis.(l)) <- false;
              in_basis.(e) <- true;
              basis.(l) <- e;
              if Float.abs w.(l) >= 1e-7 && !n_etas < max_etas then begin
                eta_r.(!n_etas) <- l;
                eta_w.(!n_etas) <- w;
                incr n_etas
              end
              else begin
                refactor ();
                ignore (recompute_y ~strict:true)
              end;
              iterate ()
            end
          end
        in
        iterate ()
      in
      let dot a b =
        let s = ref 0.0 in
        for i = 0 to n - 1 do
          s := !s +. (a.(i) *. b.(i))
        done;
        !s
      in
      let outcome =
        try
          (* Warm basis if available and still numerically consistent;
             otherwise the trivially feasible cold basis. *)
          let started_warm =
            t.has_basis
            && begin
              set_basis t.basis;
              match refactor () with
              | () -> recompute_y ~strict:false
              | exception Lu.Singular -> false
            end
          in
          if not started_warm then begin
            set_basis (cold_basis ());
            refactor ();
            if not (recompute_y ~strict:false) then raise Rev_fallback
          end;
          (* Phase 1 only when a cold start had to plant artificials. *)
          let art_mass () =
            let s = ref 0.0 in
            for k = 0 to n - 1 do
              if basis.(k) < 0 then s := !s +. y.(k)
            done;
            !s
          in
          let has_art () = Array.exists (fun id -> id < 0) basis in
          if has_art () && art_mass () > 1e-9 *. cmax then begin
            match run_phase ~phase1:true with
            | `Unbdd -> raise Rev_fallback (* phase-1 cost is bounded below *)
            | `Opt -> if art_mass () > 1e-7 *. cmax then raise Rev_fallback
          end;
          (* Drive remaining zero-level artificials out with degenerate
             swaps; an uncoverable slot means the rows do not span that
             direction and the tableau must classify the instance. *)
          for k = 0 to n - 1 do
            if basis.(k) < 0 then begin
              let ek = Array.make n 0.0 in
              ek.(k) <- 1.0;
              let v = btran ek in
              let best = ref (-1) and best_mag = ref 1e-7 in
              for i = 0 to t.ncols - 1 do
                if not in_basis.(i) then begin
                  let s = Float.abs (dot v t.cols.(i).g) in
                  if s > !best_mag then begin
                    best_mag := s;
                    best := i
                  end
                end
              done;
              if !best < 0 then raise Rev_fallback;
              basis.(k) <- !best;
              in_basis.(!best) <- true;
              y.(k) <- 0.0;
              refactor ();
              ignore (recompute_y ~strict:true)
            end
          done;
          match run_phase ~phase1:false with
          | `Unbdd ->
            (* Dual unbounded: the primal rows admit no feasible point.
               The basis is still dual-feasible — keep it for warm
               restarts after further cuts. *)
            Array.blit basis 0 t.basis 0 n;
            t.has_basis <- true;
            Infeasible
          | `Opt ->
            (* Refactorize once and recompute π from fresh factors so the
               reported optimum is not polluted by the eta file. *)
            refactor ();
            for k = 0 to n - 1 do
              d_b.(k) <- d_of ~phase1:false basis.(k)
            done;
            let pi = btran d_b in
            let x = Array.map Float.neg pi in
            let v = ref 0.0 in
            for j = 0 to n - 1 do
              v := !v +. (t.obj.(j) *. x.(j))
            done;
            Array.blit basis 0 t.basis 0 n;
            t.has_basis <- true;
            Optimal { x; objective_value = !v }
        with Lu.Singular -> raise Rev_fallback
      in
      Obs.Metrics.add c_pivots !total_pivots;
      outcome
    end
end

(* --- Incremental solves ---------------------------------------------------

   The CEGIS loop's contract: build once from the trace rows, then
   [add_constraint] each counterexample cut and [resolve].  A resolve
   warm-starts the revised engine from the previous optimal basis (a new
   primal row is a new dual column — the old basis stays feasible); the
   accumulated problem is kept for the tableau fallback. *)
module Incremental = struct
  type t = {
    base : problem;
    mutable added_rev : constr list; (* newest first *)
    mutable n_added : int;
    rev : Rev.t;
  }

  let create p =
    let n = Array.length p.objective in
    List.iter
      (fun c ->
        if Array.length c.coeffs <> n then invalid_arg "Lp: constraint arity mismatch")
      p.constraints;
    if Array.length p.bounds <> n then invalid_arg "Lp: bounds arity mismatch";
    Array.iter
      (fun (lo, hi) -> if lo > hi then invalid_arg "Lp: empty variable bound")
      p.bounds;
    { base = p; added_rev = []; n_added = 0; rev = Rev.create p }

  let problem t =
    { t.base with constraints = t.base.constraints @ List.rev t.added_rev }

  let add_constraint t c =
    if Array.length c.coeffs <> Array.length t.base.objective then
      invalid_arg "Lp: constraint arity mismatch";
    t.added_rev <- c :: t.added_rev;
    t.n_added <- t.n_added + 1;
    Rev.add_constr t.rev c

  let nrows t = List.length t.base.constraints + t.n_added

  let warm t = t.rev.Rev.has_basis

  let resolve_exn ~budget ?max_pivots t =
    match Rev.solve ~budget ?max_pivots t.rev with
    | Optimal s when not (check_feasible ~tol:1e-6 (problem t) s.x) ->
      (* Numerical guard: an optimum the (relative) feasibility check
         rejects is not trusted; re-solve with the oracle. *)
      minimize_exn ~budget ?max_pivots (problem t)
    | result -> result
    | exception Rev_fallback -> minimize_exn ~budget ?max_pivots (problem t)

  let resolve ?(budget = Budget.unlimited) ?max_pivots t =
    Obs.Trace.with_span "lp.minimize" @@ fun () ->
    try resolve_exn ~budget ?max_pivots t with Stop s -> Timeout s
end

let minimize ?(engine = Revised) ?(budget = Budget.unlimited) ?max_pivots p =
  Obs.Trace.with_span "lp.minimize" @@ fun () ->
  try
    match engine with
    | Tableau -> minimize_exn ~budget ?max_pivots p
    | Revised ->
      Incremental.resolve_exn ~budget ?max_pivots (Incremental.create p)
  with Stop s -> Timeout s

let maximize ?engine ?budget ?max_pivots p =
  match
    minimize ?engine ?budget ?max_pivots
      { p with objective = Array.map (fun c -> -.c) p.objective }
  with
  | Optimal s -> Optimal { s with objective_value = -.s.objective_value }
  | (Infeasible | Unbounded | Timeout _) as r -> r
