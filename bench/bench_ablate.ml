(* Ablations A1–A3 from DESIGN.md: design choices of the pipeline measured
   on the same case study. *)

let verify_with config width seed =
  let net = Bench_common.controller_for width in
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  Engine.verify ~config ~rng:(Rng.create seed) system

(* A1: finite-difference vs Lie-derivative LP decrease rows. *)
let ablate_decrease_rows () =
  Bench_common.hr "A1: LP decrease constraints — finite difference vs Lie derivative";
  Format.printf "%18s | %8s | %5s | %8s | %8s@." "mode" "outcome" "iters" "LP(s)" "rows";
  List.iter
    (fun (name, mode) ->
      let config =
        {
          Engine.default_config with
          Engine.synthesis = { Engine.default_config.Engine.synthesis with Synthesis.mode };
        }
      in
      let report = verify_with config 10 7 in
      let st = report.Engine.stats in
      Format.printf "%18s | %8s | %5d | %8.3f | %8d@." name
        (match report.Engine.outcome with Engine.Proved _ -> "proved" | Engine.Failed _ -> "failed")
        st.Engine.candidate_iterations st.Engine.lp_time st.Engine.lp_rows)
    [ ("finite-difference", Synthesis.Finite_difference); ("lie-derivative", Synthesis.Lie_derivative) ]

(* A2: HC4 forward-backward contraction vs forward-only evaluation in the
   delta-SAT solver, on the condition-(5) query. *)
let ablate_icp () =
  Bench_common.hr "A2: ICP power — HC4 forward-backward vs forward-only";
  Format.printf "%6s | %13s | %8s | %9s | %9s | %8s@." "Nh" "mode" "verdict" "branches"
    "hc4 calls" "time(s)";
  List.iter
    (fun width ->
      let net = Bench_common.controller_for width in
      let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
      let config = Engine.default_config in
      (* A fixed, known-good candidate so both modes decide the same query. *)
      let template = Template.make Template.Quadratic system.Engine.vars in
      let cert = { Engine.template; coeffs = [| 0.6; 1.0; 1.0 |]; level = 0.0 } in
      let formula = Engine.condition5_formula system config cert in
      let bounds =
        Array.to_list
          (Array.mapi
             (fun i v -> (v, fst config.Engine.safe_rect.(i), snd config.Engine.safe_rect.(i)))
             system.Engine.vars)
      in
      List.iter
        (fun (name, use_backward, use_mvf) ->
          let options = { Solver.default_options with Solver.use_backward; use_mvf } in
          let t0 = Timing.now () in
          let verdict, st = Solver.solve ~options ~bounds formula in
          Format.printf "%6d | %13s | %8s | %9d | %9d | %8.3f@." width name
            (Format.asprintf "%a" Solver.pp_verdict verdict
            |> fun s -> if String.length s > 8 then String.sub s 0 8 else s)
            st.Solver.branches st.Solver.hc4_calls
            (Timing.now () -. t0))
        [ ("hc4+mvf", true, true); ("hc4 only", true, false); ("forward-only", false, false) ])
    [ 10; 100 ]

(* A3: template degree — pure quadratic vs quadratic + linear terms. *)
let ablate_template () =
  Bench_common.hr "A3: template — quadratic vs quadratic+linear";
  Format.printf "%18s | %8s | %5s | %10s | %8s@." "template" "outcome" "iters" "level" "total(s)";
  List.iter
    (fun (name, template_kind) ->
      let config = { Engine.default_config with Engine.template_kind } in
      let report = verify_with config 10 7 in
      let st = report.Engine.stats in
      let level =
        match report.Engine.outcome with
        | Engine.Proved c -> Printf.sprintf "%.4f" c.Engine.level
        | Engine.Failed _ -> "-"
      in
      Format.printf "%18s | %8s | %5d | %10s | %8.3f@." name
        (match report.Engine.outcome with Engine.Proved _ -> "proved" | Engine.Failed _ -> "failed")
        st.Engine.candidate_iterations level st.Engine.total_time)
    [ ("quadratic", Template.Quadratic); ("quadratic+linear", Template.Quadratic_linear) ]

let run () =
  ablate_decrease_rows ();
  ablate_icp ();
  ablate_template ()
