(* LP-engine benchmark: the CEGIS synthesis LP solved three ways per cut
   round — cold dense tableau, cold revised simplex, and warm-started
   incremental resolve (the previous round's optimal basis plus one new
   dual column) — emitting machine-readable BENCH_lp.json.

   The workload is the real synthesis problem: seed traces of the
   NN-controlled Dubins error dynamics at hidden width Nh generate the
   positivity/decrease rows (plus X0/safe-rect separation rows), and each
   round appends one exact Lie-derivative counterexample cut, exactly what
   the Cegis loop does per CEGIS iteration.

   Reported per round: wall clock and lp.pivots for each of the three
   solves, with status/objective parity enforced (exit 1 on divergence).
   The full run asserts the >=5x warm-vs-cold-tableau speedup bar; --smoke
   only requires warm to beat the cold tableau in total.

   Usage: bench_lp [--smoke] [--nh N] [--rounds K] [--out FILE] *)

let parse_args () =
  let smoke = ref false and nh = ref 100 and rounds = ref 12 and out = ref "BENCH_lp.json" in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      nh := 10;
      rounds := 6;
      go rest
    | "--nh" :: spec :: rest ->
      nh := int_of_string spec;
      go rest
    | "--rounds" :: spec :: rest ->
      rounds := int_of_string spec;
      go rest
    | "--out" :: path :: rest ->
      out := path;
      go rest
    | arg :: _ ->
      Format.eprintf "bench_lp: unknown argument %s@." arg;
      exit 1
  in
  go (List.tl (Array.to_list Sys.argv));
  (!smoke, !nh, !rounds, !out)

let c_pivots = Obs.Metrics.counter "lp.pivots"

(* Wall clock and pivot count of one solve. *)
let timed f =
  let before = Obs.Metrics.value c_pivots in
  let result, dt = Timing.time f in
  (result, dt, Obs.Metrics.value c_pivots - before)

let status_string = function
  | Lp.Optimal _ -> "optimal"
  | Lp.Infeasible -> "infeasible"
  | Lp.Unbounded -> "unbounded"
  | Lp.Timeout _ -> "timeout"

let objective_of = function Lp.Optimal s -> s.Lp.objective_value | _ -> nan

let values_agree a b =
  Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

type round = {
  index : int;
  nrows : int;
  tableau_s : float;
  tableau_pivots : int;
  revised_s : float;
  revised_pivots : int;
  warm_s : float;
  warm_pivots : int;
  status : string;
  objective : float;
}

let () =
  let smoke, nh, rounds, out = parse_args () in
  Obs.Metrics.enable ();
  let net = Error_dynamics.controller_of_width nh in
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let config = Engine.default_config in
  (* The engine's synthesis setup: subsampled trace rows, X0 excluded,
     separation shape rows on. *)
  let options =
    {
      config.Engine.synthesis with
      Synthesis.exclude_rect = Some config.Engine.x0_rect;
      separation_rects = Some (config.Engine.x0_rect, config.Engine.safe_rect);
    }
  in
  let template = Template.make Template.Quadratic system.Engine.vars in
  let rng = Rng.create 7 in
  let sample n =
    match Engine.sample_initial_states ~rng config n with
    | Ok states -> states
    | Error got ->
      Format.eprintf "bench_lp: only %d/%d states sampled@." got n;
      exit 1
  in
  let traces =
    List.map
      (fun x0 ->
        Ode.simulate system.Engine.numeric_field ~t0:0.0 ~x0 ~dt:config.Engine.sim_dt
          ~steps:config.Engine.sim_steps)
      (sample config.Engine.n_seed)
  in
  (* Counterexample states: fresh samples from the same domain, each added
     as the exact Lie-derivative cut the CEGIS loop would generate. *)
  let cex_points = sample rounds in
  let inc =
    Synthesis.Incremental.create ~options ~template ~field:system.Engine.numeric_field
      traces
  in
  (* Cold start, outside the per-round accounting: every engine pays it
     exactly once, and from here on the warm path never repeats it. *)
  let _, cold_start_s, cold_start_pivots =
    timed (fun () -> Synthesis.Incremental.solve inc)
  in
  let rows = ref [] in
  List.iteri
    (fun k x_star ->
      Synthesis.Incremental.add_cex inc x_star;
      let problem = Synthesis.Incremental.problem inc in
      let nrows = List.length problem.Lp.constraints in
      let tab_out, tableau_s, tableau_pivots =
        timed (fun () -> Lp.minimize ~engine:Lp.Tableau problem)
      in
      let rev_out, revised_s, revised_pivots =
        timed (fun () -> Lp.minimize ~engine:Lp.Revised problem)
      in
      let warm_out, warm_s, warm_pivots =
        timed (fun () -> Synthesis.Incremental.solve inc)
      in
      (* Parity: the warm resolve and both cold engines must tell the same
         story about the same accumulated problem.  A synthesis outcome of
         Candidate/Margin_too_small corresponds to an Optimal LP status. *)
      let ws =
        match warm_out with
        | Synthesis.Candidate _ | Synthesis.Margin_too_small _ -> "optimal"
        | Synthesis.Lp_infeasible -> "infeasible"
        | Synthesis.Lp_timed_out _ -> "timeout"
      in
      let ts = status_string tab_out and rs = status_string rev_out in
      if ts <> rs || ts <> ws then begin
        Format.eprintf
          "bench_lp: round %d status divergence (tableau %s, revised %s, warm %s)@." k ts rs
          ws;
        exit 1
      end;
      (match (tab_out, rev_out) with
      | Lp.Optimal a, Lp.Optimal b
        when not (values_agree a.Lp.objective_value b.Lp.objective_value) ->
        Format.eprintf "bench_lp: round %d objective divergence (%.9g vs %.9g)@." k
          a.Lp.objective_value b.Lp.objective_value;
        exit 1
      | _ -> ());
      rows :=
        {
          index = k;
          nrows;
          tableau_s;
          tableau_pivots;
          revised_s;
          revised_pivots;
          warm_s;
          warm_pivots;
          status = ts;
          objective = objective_of tab_out;
        }
        :: !rows)
    cex_points;
  let rows = List.rev !rows in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let total_i f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let tableau_total = total (fun r -> r.tableau_s) in
  let revised_total = total (fun r -> r.revised_s) in
  let warm_total = total (fun r -> r.warm_s) in
  let speedup = if warm_total > 0.0 then tableau_total /. warm_total else infinity in
  Format.printf
    "Nh=%d rounds=%d rows=%d  cold tableau %.4fs  cold revised %.4fs  warm %.4fs  \
     (warm vs cold tableau: %.1fx; pivots %d -> %d)@."
    nh (List.length rows)
    (match List.rev rows with [] -> 0 | last :: _ -> last.nrows)
    tableau_total revised_total warm_total speedup
    (total_i (fun r -> r.tableau_pivots))
    (total_i (fun r -> r.warm_pivots));
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"lp_warm_start\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf (Printf.sprintf "  \"nh\": %d,\n" nh);
  Buffer.add_string buf
    (Printf.sprintf "  \"cold_start_s\": %.6f,\n  \"cold_start_pivots\": %d,\n" cold_start_s
       cold_start_pivots);
  Buffer.add_string buf "  \"rounds\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"round\": %d, \"rows\": %d, \"tableau_s\": %.6f, \"tableau_pivots\": %d, \
            \"revised_s\": %.6f, \"revised_pivots\": %d, \"warm_s\": %.6f, \
            \"warm_pivots\": %d, \"status\": \"%s\", \"objective\": %.9g}%s\n"
           r.index r.nrows r.tableau_s r.tableau_pivots r.revised_s r.revised_pivots r.warm_s
           r.warm_pivots r.status r.objective
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"tableau_total_s\": %.6f,\n  \"revised_total_s\": %.6f,\n  \"warm_total_s\": \
        %.6f,\n  \"tableau_total_pivots\": %d,\n  \"revised_total_pivots\": %d,\n  \
        \"warm_total_pivots\": %d,\n  \"warm_speedup_vs_cold_tableau\": %.3f\n"
       tableau_total revised_total warm_total
       (total_i (fun r -> r.tableau_pivots))
       (total_i (fun r -> r.revised_pivots))
       (total_i (fun r -> r.warm_pivots))
       speedup);
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "wrote %s@." out;
  (* Acceptance bars: warm must beat the cold tableau in total; the full
     Nh=100 run must clear 5x. *)
  if warm_total >= tableau_total then begin
    Format.eprintf "bench_lp: warm-started resolve (%.4fs) did not beat cold tableau (%.4fs)@."
      warm_total tableau_total;
    exit 1
  end;
  if (not smoke) && speedup < 5.0 then begin
    Format.eprintf "bench_lp: warm speedup %.2fx below the 5x bar@." speedup;
    exit 1
  end
