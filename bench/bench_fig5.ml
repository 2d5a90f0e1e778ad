(* Figure 5 of the paper: phase portrait over (derr, θ_err) with the
   initial set X0, the unsafe set U, sample closed-loop trajectories, and
   the verified barrier-certificate level set (an ellipse). *)

let print_rect name rect =
  Format.printf "# %s: [%g, %g] x [%g, %g]@." name (fst rect.(0)) (snd rect.(0))
    (fst rect.(1)) (snd rect.(1))

let run ~seed =
  Bench_common.hr "Figure 5: phase portrait with X0, U and the barrier level set";
  let net =
    match Bench_common.pretrained_controller () with
    | Some net ->
      Format.printf "# controller: CMA-ES-trained (data/trained_nh10.nn)@.";
      net
    | None ->
      Format.printf "# controller: hand-crafted reference@.";
      Error_dynamics.reference_controller
  in
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let config = Engine.default_config in
  let rng = Rng.create seed in
  let report = Engine.verify ~config ~rng system in
  print_rect "X0 (initial set, green in the paper)" config.Engine.x0_rect;
  print_rect "safe rect (U is its complement, red in the paper)" config.Engine.safe_rect;
  (match report.Engine.outcome with
  | Engine.Failed reason ->
    Format.printf "VERIFICATION FAILED: %s — no level set to plot@."
      (Cegis.string_of_failure reason)
  | Engine.Proved cert ->
    Format.printf "# W(x) = %s,  level = %.6f@."
      (Expr.to_string (Template.w_expr cert.Engine.template cert.Engine.coeffs))
      cert.Engine.level;
    let p = Template.p_matrix cert.Engine.template cert.Engine.coeffs in
    let ellipse = Levelset.boundary_points ~p ~level:cert.Engine.level ~n:72 in
    Format.printf "@.# barrier level set boundary (72 points): derr theta_err@.";
    Array.iter (fun (x, y) -> Format.printf "%.4f %.4f@." x y) ellipse);
  (* Sample trajectories (as in the figure: '*' start, 'o' end). *)
  Format.printf "@.# sample trajectories (one block per trajectory)@.";
  List.iteri
    (fun k tr ->
      if k < 8 then begin
        let n = Ode.trace_length tr in
        Format.printf "# trajectory %d: start (%.3f, %.3f), end (%.3f, %.3f)@." k
          tr.Ode.states.(0).(0)
          tr.Ode.states.(0).(1)
          tr.Ode.states.(n - 1).(0)
          tr.Ode.states.(n - 1).(1);
        Array.iteri
          (fun i s -> if i mod 25 = 0 then Format.printf "%.4f %.4f@." s.(0) s.(1))
          tr.Ode.states
      end)
    report.Engine.traces
