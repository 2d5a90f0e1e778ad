(* Tests for the ODE integrators: convergence order on systems with known
   closed-form solutions, adaptive error control, grid output. *)

let check_float = Alcotest.(check (float 1e-9))

(* ẋ = -x, x(0) = 1: x(t) = e^{-t}. *)
let decay _t x = [| -.x.(0) |]

(* Harmonic oscillator: ẋ = y, ẏ = -x; energy x² + y² is conserved. *)
let oscillator _t x = [| x.(1); -.x.(0) |]

let test_rk4_decay () =
  let tr = Ode.simulate_until decay ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.01 ~t_end:1.0 in
  let final = Ode.final_state tr in
  Alcotest.(check bool) "rk4 close" true (Float.abs (final.(0) -. Float.exp (-1.0)) < 1e-9)

let global_error dt =
  let tr = Ode.simulate_until decay ~t0:0.0 ~x0:[| 1.0 |] ~dt ~t_end:1.0 in
  Float.abs ((Ode.final_state tr).(0) -. Float.exp (-1.0))

let test_rk4_order4 () =
  let e1 = global_error 0.1 and e2 = global_error 0.05 in
  let ratio = e1 /. e2 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.1f in [12, 20]" ratio)
    true
    (ratio > 12.0 && ratio < 20.0)

let test_rk4_energy_conservation () =
  let tr = Ode.simulate_until oscillator ~t0:0.0 ~x0:[| 1.0; 0.0 |] ~dt:0.01 ~t_end:10.0 in
  Array.iter
    (fun s ->
      let energy = (s.(0) *. s.(0)) +. (s.(1) *. s.(1)) in
      if Float.abs (energy -. 1.0) > 1e-6 then
        Alcotest.failf "energy drifted to %.8f" energy)
    tr.Ode.states

let test_trace_shape () =
  let tr = Ode.simulate_until decay ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.1 ~t_end:1.0 in
  Alcotest.(check int) "length" 11 (Ode.trace_length tr);
  check_float "t0" 0.0 tr.Ode.times.(0);
  Alcotest.(check bool) "t_end" true (Float.abs (tr.Ode.times.(10) -. 1.0) < 1e-12);
  check_float "x0 kept" 1.0 tr.Ode.states.(0).(0)

let test_simulate_until_stop () =
  let tr =
    Ode.simulate_until
      ~stop:(fun _ x -> x.(0) < 0.5)
      decay ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.01 ~t_end:10.0
  in
  let final = Ode.final_state tr in
  Alcotest.(check bool) "stopped below threshold" true (final.(0) < 0.5);
  Alcotest.(check bool) "stopped promptly" true (final.(0) > 0.48)

(* Every sample of [tr] within [tol] of the exact solution [exact t]. *)
let check_exact ~tol exact tr =
  Array.iteri
    (fun i t ->
      Array.iteri
        (fun d v ->
          let want = (exact t).(d) in
          if Float.abs (v -. want) > tol then
            Alcotest.failf "x%d(%.3f) = %.9f, exact %.9f" d t v want)
        tr.Ode.states.(i))
    tr.Ode.times

let test_rk45_accuracy () =
  let tr = Ode.simulate_rk45 decay ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.05 ~t_end:5.0 in
  Alcotest.(check int) "every grid sample" 101 (Ode.trace_length tr);
  check_exact ~tol:1e-6 (fun t -> [| Float.exp (-.t) |]) tr

let test_rk45_oscillator_long () =
  (* Two full periods, sampled on a grid that lands on 4π. *)
  let tr =
    Ode.simulate_rk45 oscillator ~t0:0.0 ~x0:[| 1.0; 0.0 |] ~dt:(Float.pi /. 20.0)
      ~t_end:(4.0 *. Float.pi)
  in
  Alcotest.(check int) "every grid sample" 81 (Ode.trace_length tr);
  (* The global error grows about linearly: 1e-6 per period. *)
  let exact t = [| Float.cos t; -.Float.sin t |] in
  check_exact ~tol:1e-6 exact
    { Ode.times = Array.sub tr.Ode.times 0 41; states = Array.sub tr.Ode.states 0 41 };
  check_exact ~tol:2e-6 exact tr

let test_rk45_adapts_step () =
  (* A fast transient then a slow tail: the steps, and so the field
     evaluations per unit time, must thin out once the transient is gone.
     The grid is coarser than either, so it does not pin the steps. *)
  let early = ref 0 and late = ref 0 in
  let stiff t x =
    if t < 0.2 then incr early else if t >= 0.8 then incr late;
    [| -50.0 *. x.(0) |]
  in
  let tr = Ode.simulate_rk45 stiff ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.5 ~t_end:1.0 in
  Alcotest.(check int) "every grid sample" 3 (Ode.trace_length tr);
  Alcotest.(check bool)
    (Printf.sprintf "%d evaluations in [0, 0.2) > %d in [0.8, 1]" !early !late)
    true (!early > !late)

let test_rk45_grid () =
  (* Samples sit exactly on t0 + i·dt, wherever the steps fell. *)
  let t0 = 0.3 and dt = 0.07 in
  let tr = Ode.simulate_rk45 oscillator ~t0 ~x0:[| 1.0; 0.5 |] ~dt ~t_end:2.0 in
  Alcotest.(check int) "samples up to t_end" 25 (Ode.trace_length tr);
  Array.iteri
    (fun i t -> Alcotest.(check (float 0.0)) "grid time" (t0 +. (dt *. float_of_int i)) t)
    tr.Ode.times;
  check_float "x0 kept" 1.0 tr.Ode.states.(0).(0)

let test_rk45_stop () =
  (* e^{-t} first drops below 0.5 at the grid sample after ln 2 = 0.693. *)
  let tr =
    Ode.simulate_rk45 ~stop:(fun _ x -> x.(0) < 0.5) decay ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.01
      ~t_end:10.0
  in
  Alcotest.(check int) "ends at the first sample below 0.5" 71 (Ode.trace_length tr);
  check_float "at t = 0.70" 0.70 tr.Ode.times.(70);
  Alcotest.(check bool) "held there" true ((Ode.final_state tr).(0) < 0.5);
  Alcotest.(check bool) "not before" true (tr.Ode.states.(69).(0) >= 0.5)

let test_negative_steps_rejected () =
  (* A horizon ending before it starts is a negative number of steps. *)
  Alcotest.check_raises "t_end < t0" (Invalid_argument "Ode.simulate_until: t_end < t0")
    (fun () -> ignore (Ode.simulate_until decay ~t0:0.0 ~x0:[| 1.0 |] ~dt:0.1 ~t_end:(-0.1)))

let test_nonpositive_dt_rejected () =
  (* With dt <= 0 (or NaN) time would never advance and the trace would
     grow without end. *)
  List.iter
    (fun dt ->
      Alcotest.check_raises
        (Printf.sprintf "dt = %g" dt)
        (Invalid_argument "Ode.simulate_until: dt must be positive")
        (fun () -> ignore (Ode.simulate_until decay ~t0:0.0 ~x0:[| 1.0 |] ~dt ~t_end:1.0)))
    [ 0.0; -0.1; Float.nan ]

let prop_rk4_decay_2d =
  QCheck.Test.make ~name:"rk4 matches exp decay for random rates" ~count:100
    QCheck.(pair (float_range 0.1 3.0) (float_range 0.1 3.0))
    (fun (a, b) ->
      let field _t x = [| -.a *. x.(0); -.b *. x.(1) |] in
      let tr = Ode.simulate_until field ~t0:0.0 ~x0:[| 1.0; 2.0 |] ~dt:0.01 ~t_end:1.0 in
      let final = Ode.final_state tr in
      Float.abs (final.(0) -. Float.exp (-.a)) < 1e-6
      && Float.abs (final.(1) -. (2.0 *. Float.exp (-.b))) < 1e-6)

let prop_rk45_times_increase =
  QCheck.Test.make ~name:"rk45 trace times strictly increase" ~count:50
    QCheck.(pair (float_range 0.5 5.0) (float_range 0.01 0.7))
    (fun (t_end, dt) ->
      let tr = Ode.simulate_rk45 oscillator ~t0:0.0 ~x0:[| 1.0; 0.5 |] ~dt ~t_end in
      let ok = ref true in
      for i = 0 to Ode.trace_length tr - 2 do
        if tr.Ode.times.(i + 1) <= tr.Ode.times.(i) then ok := false
      done;
      !ok)

(* Bit-level trace equality: [=] on floats would equate 0.0 and -0.0. *)
let same_bits a b =
  Array.length a.Ode.times = Array.length b.Ode.times
  && Array.for_all2
       (fun t u -> Int64.equal (Int64.bits_of_float t) (Int64.bits_of_float u))
       a.Ode.times b.Ode.times
  && Array.for_all2
       (fun x y ->
         Array.for_all2
           (fun v w -> Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w))
           x y)
       a.Ode.states b.Ode.states

let prefix tr n = { Ode.times = Array.sub tr.Ode.times 0 n; states = Array.sub tr.Ode.states 0 n }

(* ẋ = [[-p, b]; [c, -q]]·x with p, q > 1 and |b|, |c| < 1: trace < 0 and
   det = pq - bc > 0, so the origin is a stable node or focus. *)
let gen_stable_linear =
  QCheck.(quad (float_range 1.1 3.0) (float_range 1.1 3.0) (float_range (-1.0) 1.0)
            (float_range (-1.0) 1.0))

let linear (p, q, b, c) _t x = [| (-.p *. x.(0)) +. (b *. x.(1)); (c *. x.(0)) -. (q *. x.(1)) |]

let prop_rk45_stop_truncates =
  (* The stop predicate only ends the trace: the stopped trace is the
     unstopped one cut after its first sample where the predicate holds. *)
  QCheck.Test.make ~name:"rk45 stop predicate only truncates" ~count:100
    QCheck.(pair gen_stable_linear (float_range 0.01 1.5))
    (fun (a, threshold) ->
      let field = linear a and x0 = [| 1.5; -1.0 |] in
      let full = Ode.simulate_rk45 field ~t0:0.0 ~x0 ~dt:0.05 ~t_end:10.0 in
      let stop _t x = Vec.norm2 x < threshold in
      let stopped = Ode.simulate_rk45 ~stop field ~t0:0.0 ~x0 ~dt:0.05 ~t_end:10.0 in
      let first =
        match Array.find_index (fun x -> stop 0.0 x) full.Ode.states with
        | Some i -> i + 1
        | None -> Ode.trace_length full
      in
      Ode.trace_length stopped = first && same_bits stopped (prefix full first))

let test_rk45_domains_match_sequential () =
  (* Eight traces simulated on two domains at once equal the sequential
     ones bit for bit: no scratch state is shared between calls. *)
  let fields =
    List.init 8 (fun i ->
        let f = float_of_int i in
        ( linear (1.1 +. (0.2 *. f), 2.9 -. (0.2 *. f), 0.9 -. (0.25 *. f), 0.1 *. f),
          [| 1.0 +. f; -1.0 |] ))
  in
  let run () =
    List.map (fun (field, x0) -> Ode.simulate_rk45 field ~t0:0.0 ~x0 ~dt:0.05 ~t_end:10.0) fields
  in
  let sequential = run () in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  List.iteri
    (fun i tr ->
      let check name r = Alcotest.(check bool) (Printf.sprintf "trace %d, %s" i name) true r in
      check "domain 1" (same_bits tr (List.nth r1 i));
      check "domain 2" (same_bits tr (List.nth r2 i)))
    sequential

let () =
  Alcotest.run "ode"
    [
      ( "fixed-step",
        [
          Alcotest.test_case "rk4 decay" `Quick test_rk4_decay;
          Alcotest.test_case "rk4 is fourth order" `Quick test_rk4_order4;
          Alcotest.test_case "rk4 energy conservation" `Quick test_rk4_energy_conservation;
          Alcotest.test_case "trace shape" `Quick test_trace_shape;
          Alcotest.test_case "stop predicate" `Quick test_simulate_until_stop;
          Alcotest.test_case "rejects negative steps" `Quick test_negative_steps_rejected;
          Alcotest.test_case "rejects non-positive dt" `Quick test_nonpositive_dt_rejected;
          QCheck_alcotest.to_alcotest prop_rk4_decay_2d;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "rk45 accuracy" `Quick test_rk45_accuracy;
          Alcotest.test_case "rk45 long-horizon oscillator" `Quick test_rk45_oscillator_long;
          Alcotest.test_case "rk45 adapts the step" `Quick test_rk45_adapts_step;
          Alcotest.test_case "rk45 grid samples" `Quick test_rk45_grid;
          Alcotest.test_case "rk45 stop predicate" `Quick test_rk45_stop;
          QCheck_alcotest.to_alcotest prop_rk45_times_increase;
          QCheck_alcotest.to_alcotest prop_rk45_stop_truncates;
          Alcotest.test_case "rk45 two domains match sequential" `Quick
            test_rk45_domains_match_sequential;
        ] );
    ]
