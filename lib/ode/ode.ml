type field = float -> Vec.t -> Vec.t

type trace = { times : float array; states : Vec.t array }

let trace_length tr = Array.length tr.times

let final_state tr = tr.states.(Array.length tr.states - 1)

let step_rk4 f t x h =
  let k1 = f t x in
  let k2 = f (t +. (0.5 *. h)) (Vec.axpy (0.5 *. h) k1 x) in
  let k3 = f (t +. (0.5 *. h)) (Vec.axpy (0.5 *. h) k2 x) in
  let k4 = f (t +. h) (Vec.axpy h k3 x) in
  let incr =
    Vec.map2 ( +. ) k1 (Vec.map2 ( +. ) (Vec.scale 2.0 k2) (Vec.map2 ( +. ) (Vec.scale 2.0 k3) k4))
  in
  Vec.axpy (h /. 6.0) incr x

let all_finite x =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length x do
    ok := Float.is_finite x.(!i);
    incr i
  done;
  !ok

let simulate_until ?(stop = fun _ _ -> false) f ~t0 ~x0 ~dt ~t_end =
  if not (dt > 0.0) then invalid_arg "Ode.simulate_until: dt must be positive";
  if t_end < t0 then invalid_arg "Ode.simulate_until: t_end < t0";
  let rec loop t x acc =
    if stop t x || t >= t_end -. (0.5 *. dt) then List.rev ((t, x) :: acc)
    else begin
      let h = Float.min dt (t_end -. t) in
      let x' = step_rk4 f t x h in
      (* Stop at the last finite state: a non-finite sample must never enter
         the trace. *)
      if not (all_finite x') then List.rev ((t, x) :: acc)
      else loop (t +. h) x' ((t, x) :: acc)
    end
  in
  let samples = loop t0 x0 [] in
  {
    times = Array.of_list (List.map fst samples);
    states = Array.of_list (List.map snd samples);
  }

(* Dormand–Prince 5(4) with dense output (Hairer, Nørsett & Wanner,
   Solving ODEs I, §II.4–II.6; the DOPRI5 code).  Row 6 of [dp_a] is the
   fifth-order solution, so stage 7 is the field at the accepted state and
   doubles as the next step's stage 1 (FSAL): six field evaluations per
   step. *)
let dp_c = [| 0.0; 0.2; 0.3; 0.8; 8.0 /. 9.0; 1.0; 1.0 |]

let dp_a =
  [|
    [||];
    [| 0.2 |];
    [| 3.0 /. 40.0; 9.0 /. 40.0 |];
    [| 44.0 /. 45.0; -56.0 /. 15.0; 32.0 /. 9.0 |];
    [| 19372.0 /. 6561.0; -25360.0 /. 2187.0; 64448.0 /. 6561.0; -212.0 /. 729.0 |];
    [| 9017.0 /. 3168.0; -355.0 /. 33.0; 46732.0 /. 5247.0; 49.0 /. 176.0; -5103.0 /. 18656.0 |];
    [| 35.0 /. 384.0; 0.0; 500.0 /. 1113.0; 125.0 /. 192.0; -2187.0 /. 6784.0; 11.0 /. 84.0 |];
  |]

(* Fifth- minus embedded fourth-order weights: the local error estimate. *)
let dp_e =
  [|
    71.0 /. 57600.0;
    0.0;
    -71.0 /. 16695.0;
    71.0 /. 1920.0;
    -17253.0 /. 339200.0;
    22.0 /. 525.0;
    -1.0 /. 40.0;
  |]

(* Weights of the fourth-order continuous extension (DOPRI5's [contd5]). *)
let dp_d =
  [|
    -12715105075.0 /. 11282082432.0;
    0.0;
    87487479700.0 /. 32700410799.0;
    -10690763975.0 /. 1880347072.0;
    701980252875.0 /. 199316789632.0;
    -1453857185.0 /. 822651844.0;
    69997945.0 /. 29380423.0;
  |]

(* The traces are LP data, not proof: 1e-6 keeps the grid samples within
   ~1e-5 of fixed-step RK4 at dt 0.05 on the Dubins loop for a quarter of
   its field evaluations.  [h_max] is one retained LP-row interval (10
   samples at dt 0.05).  [h_min] and [max_steps] only bound faulty fields. *)
let rel_tol = 1e-6
let abs_tol = 1e-9
let h_max = 0.5
let h_min = 1e-12
let max_steps = 10_000

let c_field_evals = Obs.Metrics.counter "ode.field_evals"

(* The per-step code below runs for every field evaluation, so it is
   written as indexed loops over float arrays: no closures, no stdlib
   iterators, no captured float refs, each of which boxes the floats it
   touches.  The helpers are [@inline] so the step size and [theta] stay
   unboxed across their calls.  Each sum adds its terms in the order of
   the coefficient tables: a rewrite that keeps that order keeps every
   trace bit-identical (test_integration "seed traces pinned"). *)

let[@inline] grid t0 dt i = t0 +. (dt *. float_of_int i)

(* [x + h·Σ_j a_ij·k_j] for row [i] of [dp_a], in a fresh array: the field
   may keep its argument. *)
let[@inline] stage x h k i =
  let xi = Array.copy x and row = dp_a.(i) in
  for j = 0 to Array.length row - 1 do
    let a = h *. row.(j) in
    if a <> 0.0 then begin
      let kj = k.(j) in
      for d = 0 to Array.length kj - 1 do
        xi.(d) <- xi.(d) +. (a *. kj.(d))
      done
    end
  done;
  xi

(* One step of size [h] from [x], with [k.(0)] = f t x already known:
   fills [k.(1..6)] and returns the fifth-order solution. *)
let[@inline] dp_step f t x h k =
  for i = 1 to 5 do
    k.(i) <- f (t +. (dp_c.(i) *. h)) (stage x h k i)
  done;
  let x5 = stage x h k 6 in
  k.(6) <- f (t +. h) x5;
  x5

(* Scaled RMS norm of the local error estimate; <= 1 accepts the step. *)
let[@inline] error_norm x x5 h k =
  let n = Array.length x in
  let sum = ref 0.0 in
  for d = 0 to n - 1 do
    let e = ref 0.0 in
    for j = 0 to 6 do
      e := !e +. (dp_e.(j) *. k.(j).(d))
    done;
    let scale = abs_tol +. (rel_tol *. Float.max (Float.abs x.(d)) (Float.abs x5.(d))) in
    let r = h *. !e /. scale in
    sum := !sum +. (r *. r)
  done;
  sqrt (!sum /. float_of_int n)

(* The dense-output state at [t + theta·h] inside an accepted step. *)
let[@inline] dense x x5 h k theta =
  let theta1 = 1.0 -. theta in
  let out = Array.create_float (Array.length x) in
  for d = 0 to Array.length x - 1 do
    let xd = x.(d) in
    let ydiff = x5.(d) -. xd in
    let bspl = (h *. k.(0).(d)) -. ydiff in
    let r4 = ydiff -. (h *. k.(6).(d)) -. bspl in
    let r5 = ref 0.0 in
    for j = 0 to 6 do
      r5 := !r5 +. (dp_d.(j) *. k.(j).(d))
    done;
    out.(d) <- xd +. (theta *. (ydiff +. (theta1 *. (bspl +. (theta *. (r4 +. (theta1 *. h *. !r5)))))))
  done;
  out

let stages_finite k =
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length k do
    ok := all_finite k.(!j);
    incr j
  done;
  !ok

(* [a]'s first [n] entries in an array of length [cap], padded with
   [fill]. *)
let grown a n cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 n;
  b

(* A trace's arrays start at this many samples and double up to the full
   grid, so a trace its stop ends early never allocates the grid (401
   entries at the engine's default, past the minor heap's size limit). *)
let initial_samples = 64

let simulate_rk45 ?(stop = fun _ _ -> false) f ~t0 ~x0 ~dt ~t_end =
  if not (dt > 0.0) then invalid_arg "Ode.simulate_rk45: dt must be positive";
  if t_end < t0 then invalid_arg "Ode.simulate_rk45: t_end < t0";
  let last = int_of_float (Float.floor (((t_end -. t0) /. dt) +. 1e-9)) in
  let cap = min (last + 1) initial_samples in
  let times = ref (Array.make cap t0) and states = ref (Array.make cap x0) in
  let count = ref 1 and evals = ref 0 in
  let k = Array.make 7 x0 in
  (* Every way out of the loop ends the trace at the last recorded sample:
     the stop predicate, a non-finite stage or sample, the last grid
     sample, a step below [h_min] and [max_steps] attempts. *)
  let live = ref (last > 0 && not (stop t0 x0)) in
  if !live then begin
    k.(0) <- f t0 x0;
    incr evals;
    live := all_finite k.(0)
  end;
  let t = ref t0 and x = ref x0 and h = ref (Float.min dt h_max) in
  let steps = ref 0 and rejected = ref false in
  while !live && !steps < max_steps do
    let hs = Float.min !h (grid t0 dt last -. !t) in
    let x5 = dp_step f !t !x hs k in
    evals := !evals + 6;
    if not (all_finite x5 && stages_finite k) then live := false
    else begin
      let err = error_norm !x x5 hs k in
      if err <= 1.0 then begin
        (* Record every grid sample in (t, t + h] from the accepted step. *)
        let t' = !t +. hs in
        while !live && !count <= last && grid t0 dt !count <= t' +. (1e-9 *. dt) do
          let tg = grid t0 dt !count in
          let theta = (tg -. !t) /. hs in
          let xg = if theta >= 1.0 then x5 else dense !x x5 hs k theta in
          if not (all_finite xg) then live := false
          else begin
            if !count = Array.length !times then begin
              let cap = min (last + 1) (2 * !count) in
              times := grown !times !count cap t0;
              states := grown !states !count cap x0
            end;
            !times.(!count) <- tg;
            !states.(!count) <- xg;
            incr count;
            if stop tg xg then live := false
          end
        done;
        if !live && !count <= last then begin
          k.(0) <- k.(6);
          let grow = 0.9 *. (Float.max err 1e-10 ** -0.2) in
          let grow = Float.min (if !rejected then 1.0 else 5.0) grow in
          t := !t +. hs;
          x := x5;
          h := Float.min h_max (hs *. grow);
          incr steps;
          rejected := false
        end
        else live := false
      end
      else begin
        let h' = hs *. Float.max 0.1 (0.9 *. (err ** -0.2)) in
        if h' >= h_min then begin
          h := h';
          incr steps;
          rejected := true
        end
        else live := false
      end
    end
  done;
  Obs.Metrics.add c_field_evals !evals;
  if !count = Array.length !times then { times = !times; states = !states }
  else { times = Array.sub !times 0 !count; states = Array.sub !states 0 !count }
