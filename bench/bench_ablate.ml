(* Ablations A1 and A3 from DESIGN.md: design choices of the pipeline
   measured on the same case study. *)

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
  ablate_template ()
