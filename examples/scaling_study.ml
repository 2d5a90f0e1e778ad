(* How does verification cost scale with the size of the neural network?
   (The question behind the paper's Table 1.)

   Verifies controllers of increasing hidden-layer width — all computing
   the same function, so only the verification workload changes — and
   reports the per-stage timing.

   Run with: dune exec examples/scaling_study.exe *)

let () =
  Format.printf "%8s | %10s | %8s | %10s | %10s@." "neurons" "expr nodes" "LP(s)" "SMT(5)(s)"
    "total(s)";
  Format.printf "%s@." (String.make 58 '-');
  List.iter
    (fun width ->
      let net = Error_dynamics.controller_of_width width in
      let expr_size = Expr.size (Error_dynamics.symbolic_controller net) in
      let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
      let report = Engine.verify ~rng:(Rng.create 11) system in
      let st = report.Engine.stats in
      let tag =
        match report.Engine.outcome with Engine.Proved _ -> "" | Engine.Failed _ -> "  (failed!)"
      in
      Format.printf "%8d | %10d | %8.3f | %10.3f | %10.3f%s@." width expr_size st.Engine.lp_time
        st.Engine.smt5_time st.Engine.total_time tag)
    [ 10; 50; 100; 500; 1000 ];
  Format.printf
    "@.The LP depends only on the template (3 coefficients), so it is flat; the SMT@.\
     decrease-condition check walks the controller's expression at every interval@.\
     evaluation, so it grows linearly with the network.@."
