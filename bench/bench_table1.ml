(* Table 1 of the paper: timing of the full safety-verification pipeline as
   the hidden-layer width of the controller grows.

   Paper columns (averages over 30 seeds; we default to 3, see --seeds):
     Nh | avg #iterations | LP per call | SMT query per call |
     total generator time | other-steps time | total time

   Controllers are widenings of a verified base controller with every
   hidden neuron jittered by 1 % (Error_dynamics.distinct_controller_of_width),
   so no two neurons coincide and the verification workload, which is what
   Table 1 measures, scales with the network as in the paper, without
   retraining at every width. *)

let widths = [ 10; 20; 40; 50; 70; 80; 90; 100; 300; 500; 700; 1000 ]

type row = {
  width : int;
  avg_iters : float;
  lp_per_call : float;
  query_per_call : float;
  generator_total : float;
  other : float;
  total : float;
  (* Per-stage averages for the machine-readable breakdown. *)
  sim : float;
  lp : float;
  cond5 : float;
  cond6 : float;
  cond7 : float;
  proved : int;
  runs : int;
}

let run_one width seed =
  let system = Bench_common.dubins_system (Error_dynamics.distinct_controller_of_width width) in
  let rng = Rng.create seed in
  let report = Engine.verify ~rng system in
  let st = report.Engine.stats in
  let proved = match report.Engine.outcome with Engine.Proved _ -> 1 | Engine.Failed _ -> 0 in
  (st, proved)

let bench_width ~seeds width =
  let runs = List.init seeds (fun i -> run_one width (1000 + i)) in
  let n = float_of_int seeds in
  let avg f = List.fold_left (fun acc (st, _) -> acc +. f st) 0.0 runs /. n in
  {
    width;
    avg_iters = avg (fun st -> float_of_int st.Engine.candidate_iterations);
    lp_per_call = avg (fun st -> st.Engine.lp_time /. float_of_int (max 1 st.Engine.lp_calls));
    query_per_call =
      avg (fun st -> st.Engine.smt5_time /. float_of_int (max 1 st.Engine.smt5_calls));
    (* "Computing generator" = the Fig-1 upper loop (LP + condition-5 SMT);
       seed simulations, level-set selection and conditions (6)/(7) are the
       paper's "other steps". *)
    generator_total = avg (fun st -> st.Engine.lp_time +. st.Engine.smt5_time);
    other = avg (fun st -> st.Engine.total_time -. st.Engine.lp_time -. st.Engine.smt5_time);
    total = avg (fun st -> st.Engine.total_time);
    sim = avg (fun st -> st.Engine.sim_time);
    lp = avg (fun st -> st.Engine.lp_time);
    cond5 = avg (fun st -> st.Engine.smt5_time);
    cond6 = avg (fun st -> st.Engine.smt6_time);
    cond7 = avg (fun st -> st.Engine.smt7_time);
    proved = List.fold_left (fun acc (_, p) -> acc + p) 0 runs;
    runs = seeds;
  }

let run ~seeds () =
  Bench_common.hr "Table 1: safety-verification timing vs hidden-layer width";
  Format.printf
    "%6s | %9s | %8s | %9s | %9s | %8s | %8s | %s@."
    "Nh" "avg iters" "LP(s)" "Query(s)" "GenTot(s)" "Other(s)" "Total(s)" "proved";
  Format.printf "%s@." (String.make 84 '-');
  let rows =
    List.map
      (fun width ->
        let r = bench_width ~seeds width in
        Format.printf
          "%6d | %9.1f | %8.3f | %9.3f | %9.3f | %8.3f | %8.3f | %d/%d@."
          r.width r.avg_iters r.lp_per_call r.query_per_call r.generator_total r.other r.total
          r.proved r.runs;
        r)
      widths
  in
  Format.printf "@.Per-stage averages (s); coverage = share of the total the stages explain@.";
  Format.printf "%6s | %10s | %8s | %8s | %8s | %8s | %8s | %s@." "Nh" "simulation" "LP"
    "cond(5)" "cond(6)" "cond(7)" "total" "coverage";
  List.iter
    (fun r ->
      let staged = r.sim +. r.lp +. r.cond5 +. r.cond6 +. r.cond7 in
      Format.printf "%6d | %10.4f | %8.4f | %8.4f | %8.4f | %8.4f | %8.4f | %5.1f %%@." r.width
        r.sim r.lp r.cond5 r.cond6 r.cond7 r.total (100.0 *. staged /. r.total))
    rows;
  Format.printf
    "@.Shape check vs paper: LP per-call time ~flat; SMT query time grows with Nh;@.\
     iteration counts stay small (1-3); totals dominated by the SMT query column.@.";
  List.for_all (fun r -> r.proved = r.runs) rows
