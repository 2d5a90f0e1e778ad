(* Bechamel micro-benchmarks of the substrate operations that dominate the
   pipeline: NN forward passes, interval evaluation of exported networks,
   one HC4 revision, one LP solve, one seed trace. *)

open Bechamel
open Toolkit

let nn_forward_test width =
  let net = Bench_common.controller_for width in
  let input = [| 1.3; -0.4 |] in
  Test.make
    ~name:(Printf.sprintf "nn_forward_%d" width)
    (Staged.stage (fun () -> ignore (Nn.eval1 net input)))

let interval_eval_test width =
  let net = Bench_common.controller_for width in
  let expr = Error_dynamics.symbolic_controller net in
  let box v =
    if String.equal v Error_dynamics.var_derr then Interval.make (-5.0) 5.0
    else Interval.make (-1.5) 1.5
  in
  Test.make
    ~name:(Printf.sprintf "interval_eval_nn_%d" width)
    (Staged.stage (fun () -> ignore (Expr.ieval box expr)))

let tape_interval_eval_test width =
  let net = Bench_common.controller_for width in
  let expr = Error_dynamics.symbolic_controller net in
  let index_of v = if String.equal v Error_dynamics.var_derr then 0 else 1 in
  let tape = Tape.compile ~index_of { Formula.expr; rel = Formula.Le0 } in
  let bufs = Tape.make_buffers tape in
  let domains = [| Interval.make (-5.0) 5.0; Interval.make (-1.5) 1.5 |] in
  Test.make
    ~name:(Printf.sprintf "tape_interval_eval_nn_%d" width)
    (Staged.stage (fun () -> ignore (Tape.forward tape bufs domains)))

(* The Lie-derivative atom (the biggest expression in condition (5)), not
   one of the small box-membership atoms. *)
let lie_atom width =
  let net = Bench_common.controller_for width in
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let config = Engine.default_config in
  let template = Template.make Template.Quadratic system.Engine.vars in
  let cert = { Engine.template; coeffs = [| 0.6; 1.0; 1.0 |]; level = 0.0 } in
  let formula = Engine.condition5_formula system config cert in
  match Formula.to_dnf formula with
  | conj :: _ ->
    List.fold_left
      (fun best a ->
        if Expr.size a.Formula.expr > Expr.size best.Formula.expr then a else best)
      (List.hd conj) conj
  | [] -> assert false

let index_of v = if String.equal v Error_dynamics.var_derr then 0 else 1

let tape_revise_test width =
  let atom = lie_atom width in
  let tape = Tape.compile ~index_of atom in
  let bufs = Tape.make_buffers tape in
  Test.make
    ~name:(Printf.sprintf "tape_revise_%d" width)
    (Staged.stage (fun () ->
         let domains = [| Interval.make (-5.0) 5.0; Interval.make (-1.5) 1.5 |] in
         try ignore (Tape.revise tape bufs domains) with Tape.Empty_box -> ()))

(* The mean-value-form sweep of a condition (5) leaf: one forward pass over
   the Lie atom and both its partials, the largest per-leaf cost of a
   certificate-store hit. *)
let tape_forward_all_test width =
  let atom = lie_atom width in
  let partials =
    Array.map
      (fun v -> Expr.diff v atom.Formula.expr)
      [| Error_dynamics.var_derr; Error_dynamics.var_theta_err |]
  in
  let tape = Tape.compile ~index_of ~partials atom in
  let bufs = Tape.make_buffers tape in
  let domains = [| Interval.make (-5.0) 5.0; Interval.make (-1.5) 1.5 |] in
  Test.make
    ~name:(Printf.sprintf "tape_forward_all_lie_%d" width)
    (Staged.stage (fun () -> ignore (Tape.forward_all tape bufs domains)))

let lp_solve_test () =
  (* A fixed mid-size synthesis-shaped LP. *)
  let rng = Rng.create 3 in
  let rows =
    List.init 200 (fun _ ->
        let d = Rng.uniform rng (-5.0) 5.0 and th = Rng.uniform rng (-1.5) 1.5 in
        let r = (d *. d) +. (th *. th) in
        {
          Lp.coeffs = [| d *. d; d *. th; th *. th; -.r |];
          relation = Lp.Ge;
          rhs = 0.0;
        })
  in
  let problem =
    {
      Lp.objective = [| 0.0; 0.0; 0.0; -1.0 |];
      constraints = rows;
      bounds = [| (-1.0, 1.0); (-1.0, 1.0); (-1.0, 1.0); (-1.0, 1.0) |];
    }
  in
  Test.make ~name:"lp_solve_200_rows" (Staged.stage (fun () -> ignore (Lp.minimize problem)))

(* One seed trace as the engine simulates it: Dormand–Prince under
   [Engine.default_config]'s rect, dt and steps, from a fixed x0. *)
let rk45_seed_trace_test name field x0 =
  let config = Engine.default_config in
  Test.make
    ~name:(Printf.sprintf "rk45_seed_trace_%s" name)
    (Staged.stage (fun () ->
         ignore
           (Cegis.simulate ~rect:config.Engine.safe_rect ~dt:config.Engine.sim_dt
              ~steps:config.Engine.sim_steps ~converged:1e-4 field x0)))

let poly_2d_field () =
  match Registry.find_scenario "poly-2d" with
  | Some e -> (
    match Registry.elaborate e.Registry.scenario with
    | Ok el -> el.Scenario.closed.Plant.system.Engine.numeric_field
    | Error why -> failwith why)
  | None -> failwith "poly-2d: not in the registry"

let run () =
  Bench_common.hr "Micro-benchmarks (Bechamel, monotonic clock)";
  let tests =
    Test.make_grouped ~name:"micro"
      [
        nn_forward_test 10;
        nn_forward_test 100;
        nn_forward_test 1000;
        interval_eval_test 10;
        interval_eval_test 100;
        tape_interval_eval_test 10;
        tape_interval_eval_test 100;
        tape_revise_test 10;
        tape_revise_test 100;
        tape_forward_all_test 100;
        lp_solve_test ();
        rk45_seed_trace_test "dubins_nh10"
          (Error_dynamics.field_of_network Error_dynamics.default_config
             (Error_dynamics.controller_of_width 10))
          [| 3.0; 0.5 |];
        rk45_seed_trace_test "poly_2d" (poly_2d_field ()) [| 0.8; -0.6 |];
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Format.printf "%-34s | %14s@." "benchmark" "time per run";
  Format.printf "%s@." (String.make 52 '-');
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.1f ns" ns
      in
      Format.printf "%-34s | %14s@." name pretty)
    rows
