(* Generate the data behind the paper's Figure 5: the (derr, θ_err) phase
   plane with the initial set X0, the unsafe set U, closed-loop
   trajectories from random initial states, and the verified barrier
   level set.

   Output is gnuplot-friendly blocks; e.g.

     dune exec examples/phase_portrait.exe > portrait.dat
     gnuplot> plot 'portrait.dat' index 0 w l, '' index 1 w p

   Run with: dune exec examples/phase_portrait.exe *)

let () =
  let net = Error_dynamics.reference_controller in
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let config = Engine.default_config in
  let report = Engine.verify ~config ~rng:(Rng.create 7) system in

  (* Block 0: X0 rectangle outline. *)
  let print_rect rect =
    let x_lo, x_hi = rect.(0) and y_lo, y_hi = rect.(1) in
    List.iter
      (fun (x, y) -> Format.printf "%.5f %.5f@." x y)
      [ (x_lo, y_lo); (x_hi, y_lo); (x_hi, y_hi); (x_lo, y_hi); (x_lo, y_lo) ]
  in
  Format.printf "# block 0: X0 (initial set)@.";
  print_rect config.Engine.x0_rect;

  Format.printf "@.@.# block 1: boundary of the safe rectangle (U is outside)@.";
  print_rect config.Engine.safe_rect;

  (* Block 2: the certified ellipse. *)
  Format.printf "@.@.# block 2: barrier level set@.";
  (match report.Engine.outcome with
  | Engine.Proved cert ->
    let p = Template.p_matrix cert.Engine.template cert.Engine.coeffs in
    let pts = Levelset.boundary_points ~p ~level:cert.Engine.level ~n:120 in
    Array.iter (fun (x, y) -> Format.printf "%.5f %.5f@." x y) pts;
    (* Close the curve. *)
    let x0, y0 = pts.(0) in
    Format.printf "%.5f %.5f@." x0 y0
  | Engine.Failed _ -> Format.printf "# (verification failed)@.");

  (* Blocks 3+: trajectories, '*' start to 'o' end as in the paper. *)
  List.iteri
    (fun k tr ->
      if k < 12 then begin
        Format.printf "@.@.# block %d: trajectory from (%.2f, %.2f)@." (k + 3)
          tr.Ode.states.(0).(0)
          tr.Ode.states.(0).(1);
        Array.iter (fun s -> Format.printf "%.5f %.5f@." s.(0) s.(1)) tr.Ode.states
      end)
    report.Engine.traces
