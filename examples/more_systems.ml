(* The barrier engine beyond the Dubins car: verify (or refuse to verify)
   a small zoo of closed-loop systems from the scenario registry — a
   torque-controlled pendulum, a linear system, and the time-reversed Van
   der Pol oscillator — and watch it correctly reject their unverifiable
   siblings.

   Run with: dune exec examples/more_systems.exe *)

let pf = Format.printf

let zoo =
  [
    "damped-pendulum";
    "undamped-pendulum";
    "linear-stable";
    "linear-saddle";
    "van-der-pol-reversed";
  ]

let () =
  pf "system                   expected       result@.";
  pf "%s@." (String.make 72 '-');
  List.iter
    (fun name ->
      let scenario = (Option.get (Registry.find_scenario name)).Registry.scenario in
      let e = Result.fold ~ok:Fun.id ~error:failwith (Registry.elaborate scenario) in
      let report =
        Engine.verify ~config:e.Scenario.config ~rng:(Rng.create 7) e.Scenario.closed.Plant.system
      in
      let should_fail = scenario.Scenario.expectation = Some Scenario.Should_fail in
      let expected = if should_fail then "no certificate" else "certificate" in
      match report.Engine.outcome with
      | Engine.Proved cert ->
        pf "%-24s %-14s SAFE: W = %s, level %.4f@." name expected
          (Expr.to_string (Template.w_expr cert.Engine.template cert.Engine.coeffs))
          cert.Engine.level
      | Engine.Failed _ ->
        pf "%-24s %-14s no certificate found (as %s)@." name expected
          (if should_fail then "expected: the system genuinely admits none" else "NOT expected!"))
    zoo;
  pf
    "@.The two rejections are genuine mathematical facts, not solver weakness: the@.\
     frictionless pendulum conserves energy (no strictly decreasing W exists), and@.\
     the saddle has escaping trajectories.  The engine never proves a false claim —@.\
     soundness comes from the outward-rounded interval arithmetic in the SMT layer.@."
