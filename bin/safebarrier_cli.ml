(* Command-line interface for the safebarrier toolkit.

   Subcommands:
     verify    run the full barrier-certificate pipeline on a controller
     export    verify and persist the certificate artifact to a store
     check     independently audit a stored certificate artifact
     train     CMA-ES policy search for a path-following controller
     portrait  Figure-5 style phase-portrait data
     serve     fault-tolerant batch verification daemon (Unix socket)
     request   client for a running serve daemon
     store-fsck  integrity-scan (and quarantine) a certificate store

   Exit codes (for CI/script gating): 0 success/proved/certified,
   1 audit rejection, 2 verification failure, 3 deadline timeout. *)

open Cmdliner

let outcome_string = function
  | Engine.Proved _ -> "proved"
  | Engine.Failed reason -> Cegis.string_of_failure reason

let print_report report =
  let st = report.Engine.stats in
  (match report.Engine.outcome with
  | Engine.Proved cert ->
    Format.printf "RESULT: SAFE (barrier certificate found)@.";
    Format.printf "  W(x)  = %s@."
      (Expr.to_string (Template.w_expr cert.Engine.template cert.Engine.coeffs));
    Format.printf "  level = %.6f   (barrier B(x) = W(x) - level)@." cert.Engine.level
  | Engine.Failed reason ->
    Format.printf "RESULT: INCONCLUSIVE — %s@." (Cegis.string_of_failure reason));
  Format.printf
    "  iterations: %d candidate, %d level   counterexamples: %d@."
    st.Engine.candidate_iterations st.Engine.level_iterations
    (List.length report.Engine.counterexamples);
  Format.printf
    "  timing: LP %.3fs (%d calls)  SMT(5) %.3fs (%d calls, %d branches)  SMT(6,7) %.3fs  sim %.3fs  total %.3fs@."
    st.Engine.lp_time st.Engine.lp_calls st.Engine.smt5_time st.Engine.smt5_calls
    st.Engine.smt5_branches st.Engine.smt67_time st.Engine.sim_time st.Engine.total_time;
  match st.Engine.budget_stop with
  | Some stop -> Format.printf "  budget stop: %s@." (Budget.string_of_stop stop)
  | None -> ()

(* Print, then exit nonzero on anything but a proof, so scripts and CI can
   gate on `safebarrier verify`. *)
let finish_report report =
  print_report report;
  let code = Engine.exit_code report.Engine.outcome in
  if code <> 0 then exit code

(* --- verify ---------------------------------------------------------- *)

let width_arg =
  let doc =
    "Hidden-layer width of the controller, from the plant's width family.  Without it the \
     Dubins case study uses width 10; ignored under --scenario."
  in
  Arg.(value & opt (some int) None & info [ "width"; "w" ] ~docv:"N" ~doc)

let network_arg =
  let doc = "Load the controller from a network file instead of the built-in one." in
  Arg.(value & opt (some file) None & info [ "network"; "n" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "PRNG seed (seed simulations, sampling)." in
  Arg.(value & opt int 7 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let lie_arg =
  let doc = "Use exact Lie-derivative LP rows instead of finite differences." in
  Arg.(value & flag & info [ "lie" ] ~doc)

let linear_template_arg =
  let doc = "Add linear terms to the quadratic generator template." in
  Arg.(value & flag & info [ "linear-terms" ] ~doc)

let template_conv =
  let parse s =
    match Template.kind_of_string s with Ok k -> Ok k | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Template.kind_to_string k))

let template_arg =
  let doc =
    "Generator template kind: $(b,quadratic), $(b,quadratic_linear), or $(b,poly:<d>) (all \
     monomials of total degree at most $(i,d), $(i,d) >= 2).  Takes precedence over \
     --linear-terms; a scenario file's $(b,template) field still overrides both."
  in
  Arg.(value & opt (some template_conv) None & info [ "template" ] ~docv:"KIND" ~doc)

let gamma_arg =
  let doc = "Slack of the decrease condition (default: the plant's; paper: 1e-6)." in
  Arg.(value & opt (some float) None & info [ "gamma" ] ~docv:"G" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock deadline in seconds for the whole verification; on expiry every stage returns \
     a structured timeout instead of hanging."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let restarts_arg =
  let doc =
    "On failure, retry up to $(docv) more times, escalating through the degradation ladder \
     (fresh seed traces, delta widened, LP subsample tightened, richer template).  The \
     deadline, if any, is shared across all attempts."
  in
  Arg.(value & opt int 0 & info [ "restarts" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel stages (δ-SAT branch-and-prune subbox search and \
     seed-trace simulation).  1 runs fully sequentially; the default is the machine's \
     recommended domain count.  The verdict is the same for any value."
  in
  Arg.(value & opt int (Pool.default_jobs ()) & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let store_arg =
  let doc =
    "Certificate store directory.  Before running CEGIS the store is probed: an exact \
     fingerprint hit is independently audited and returned without any synthesis; a nearby \
     entry (same configuration, different network) warm-starts the LP.  Fresh proofs are \
     exported back into the store."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc =
    "With --store: skip the cache lookup and the warm-start scan (force a cold CEGIS run), \
     but still export the resulting certificate."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let trace_arg =
  let doc =
    "Enable span tracing and write the collected span tree as versioned JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let report_arg =
  let doc =
    "Write a structured JSON run report (per-stage times, metric counters, outcome) to \
     $(docv).  The file is written even when verification fails, before the nonzero exit."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let verify_via_store ~config ~budget ~rng ~store ~no_cache ~closed =
  let result =
    Cache.verify ~config ~budget ~use_cache:(not no_cache) ?network:closed.Plant.network
      ~plant:closed.Plant.id ~store ~rng closed.Plant.system
  in
  Format.printf "certificate store: %s@." (Cache.string_of_source result.Cache.source);
  (match result.Cache.exported with
  | Some dir -> Format.printf "exported artifact to %s@." dir
  | None -> ());
  result

(* --- the verification problem ------------------------------------------ *)

let scenario_arg =
  let doc =
    "Load the verification problem (plant, parameters, controller, rectangles, solver \
     options) from a scenario file instead of the built-in Dubins case study.  Fields the \
     file sets override the corresponding flags, which fill the ones it leaves unset; the \
     file's controller stands (--width is ignored), and --network still replaces it."
  in
  Arg.(value & opt (some file) None & info [ "scenario" ] ~docv:"FILE" ~doc)

let or_exit = function
  | Ok e -> e
  | Error msg ->
    Format.eprintf "safebarrier: %s@." msg;
    exit 2

(* [verify]/[export]'s problem, elaborated when the command calls it. *)
let problem_term =
  let make scenario network width lie linear_terms template gamma jobs () =
    or_exit
      (Registry.problem ?scenario ?network:(Option.map Nn.load network) ?width ?gamma ~lie
         ~linear_terms ?template ~jobs ())
  in
  Term.(
    const make $ scenario_arg $ network_arg $ width_arg $ lie_arg $ linear_template_arg
    $ template_arg $ gamma_arg $ jobs_arg)

(* The Dubins case study, under --network and --width only. *)
let case_study_term =
  let make network width =
    or_exit (Registry.problem ?network:(Option.map Nn.load network) ?width ())
  in
  Term.(const make $ network_arg $ width_arg)

let verify_cmd =
  let run problem seed deadline restarts store no_cache trace_file report_file =
    if trace_file <> None || report_file <> None then begin
      Obs.Trace.enable ();
      Obs.Metrics.enable ()
    end;
    let { Scenario.closed; config; _ } = problem () in
    let system = closed.Plant.system in
    let budget =
      match deadline with None -> Budget.unlimited | Some s -> Budget.with_timeout s
    in
    let rng = Rng.create seed in
    (* Store runs measure the cache lookup/audit overhead around the engine,
       so the run report can account for it as its own stage. *)
    let store_wall = ref None in
    (* Observability files are written before [finish_report]'s nonzero
       exit, so a failed run still leaves its trace and report behind. *)
    let finish report =
      (match trace_file with Some path -> Obs.Trace.write_file path | None -> ());
      (match report_file with
      | None -> ()
      | Some path ->
        (* A store run's total is the store wall time, with the lookup and
           audit around the engine as its own [cache] stage. *)
        let stats = report.Engine.stats in
        let report, extra_stages =
          match !store_wall with
          | Some dt when dt > stats.Engine.total_time ->
            ( { report with Engine.stats = { stats with Engine.total_time = dt } },
              [ Obs.Report.stage ~name:"cache" ~seconds:(dt -. stats.Engine.total_time) () ] )
          | _ -> (report, [])
        in
        let meta =
          [
            ("controller", Obs.Json.String (Plant.controller_label closed.Plant.controller));
            ("plant", Obs.Json.String closed.Plant.plant.Plant.name);
            ("jobs", Obs.Json.Int config.Engine.jobs);
            ("seed", Obs.Json.Int seed);
            ("gamma", Obs.Json.Float config.Engine.gamma);
          ]
        in
        Obs.Report.write_file path
          (Engine.run_report ~meta ~extra_stages ~spans:(Obs.Trace.spans ()) report);
        Format.printf "run report: %s@." path);
      finish_report report
    in
    let resilient () =
      let res = Engine.verify_resilient ~config ~budget ~restarts ~rng system in
      List.iteri
        (fun i a ->
          Format.printf "attempt %d (%s): %s@." (i + 1) a.Engine.label
            (outcome_string a.Engine.report.Engine.outcome))
        res.Engine.attempts;
      res.Engine.best
    in
    (* With a store, the cached/warm-started run replaces the plain first
       attempt; the restart ladder only engages if it fails (and runs cold —
       escalated configs no longer match the store fingerprint, so their
       proofs are not exported). *)
    finish
      (match store with
      | Some root -> (
        let result, dt =
          Timing.time (fun () ->
              verify_via_store ~config ~budget ~rng ~store:root ~no_cache ~closed)
        in
        store_wall := Some dt;
        match result.Cache.report with
        | { Engine.outcome = Engine.Failed _; _ } when restarts > 0 -> resilient ()
        | report -> report)
      | None when restarts = 0 -> Engine.verify ~config ~budget ~rng system
      | None -> resilient ())
  in
  let doc =
    "Verify safety of an NN-controlled plant via a barrier certificate (default: the Dubins \
     case study; --scenario selects any registry plant)."
  in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const run $ problem_term $ seed_arg $ deadline_arg $ restarts_arg $ store_arg
      $ no_cache_arg $ trace_arg $ report_arg)

(* --- export ----------------------------------------------------------- *)

let export_cmd =
  let store =
    let doc = "Certificate store directory to export into." in
    Arg.(value & opt string "data/certs" & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let run problem seed store =
    let { Scenario.closed; config; _ } = problem () in
    let result =
      verify_via_store ~config ~budget:Budget.unlimited ~rng:(Rng.create seed) ~store
        ~no_cache:false ~closed
    in
    match result.Cache.report.Engine.outcome with
    | Engine.Proved _ ->
      let dir =
        match result.Cache.exported with
        | Some dir -> dir
        | None -> Store.dir_of ~root:store result.Cache.fingerprint.Artifact.combined
      in
      Format.printf "certificate artifact: %s@." dir
    | Engine.Failed _ as outcome ->
      Format.printf "RESULT: INCONCLUSIVE — %s; nothing exported@." (outcome_string outcome);
      exit (Engine.exit_code outcome)
  in
  let doc = "Verify a controller and persist the certificate artifact to a store." in
  Cmd.v
    (Cmd.info "export" ~doc)
    Term.(const run $ problem_term $ seed_arg $ store)

(* --- check ------------------------------------------------------------ *)

let check_cmd =
  let dir =
    let doc =
      "Certificate artifact directory (a store entry: cert.txt plus network.nn), e.g. \
       data/certs/<fingerprint>."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let diverse =
    let doc =
      "Walk every cover with expression-tree evaluation (Expr.ieval over each atom and its \
       partials) instead of the compiled tape, so the certifying step shares no evaluation \
       code path with the synthesis run that produced the artifact."
    in
    Arg.(value & flag & info [ "diverse" ] ~doc)
  in
  let deadline =
    let doc = "Wall-clock deadline in seconds for the audit." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  (* Rebuild the closed-loop system the artifact claims to certify: the
     --scenario document, else the artifact's registry plant at its
     registry identity, with the stored network (the binding under audit)
     as the controller when there is one. *)
  let rebuild_system ~scenario (entry : Store.entry) =
    let fail fmt = Format.kasprintf (fun m -> Format.eprintf "check: %s@." m; exit 1) fmt in
    let pid = entry.Store.artifact.Artifact.plant in
    match Registry.problem ?scenario ~plant:pid.Artifact.name ?network:entry.Store.network () with
    | Error msg -> fail "%s" msg
    | Ok e when scenario = None && e.Scenario.closed.Plant.id <> pid ->
      fail
        "artifact was exported under non-default parameters (or another version) of plant %s \
         — pass --scenario FILE recording them"
        pid.Artifact.name
    | Ok e -> e.Scenario.closed.Plant.system
  in
  let run dir scenario diverse deadline =
    match Store.load_dir dir with
    | Error err ->
      Format.eprintf "check: %s: %s@." dir (Store.string_of_error err);
      exit 1
    | Ok entry ->
      let system = rebuild_system ~scenario entry in
      let budget =
        match deadline with None -> Budget.unlimited | Some s -> Budget.with_timeout s
      in
      let verdict, stats =
        Checker.audit ~diverse ~budget ?network:entry.Store.network ~system
          entry.Store.artifact
      in
      Format.printf "%s@." (Checker.string_of_verdict verdict);
      Format.printf
        "  fingerprint %s@.  audit: condition (5) %.3fs, conditions (6,7) %.3fs, %d branches, \
         total %.3fs@.  replay: %d nodes, %d dropped covers; leaves closed by %d forward \
         sweeps, %d MVF@."
        entry.Store.artifact.Artifact.fingerprint.Artifact.combined stats.Checker.cond5_time
        stats.Checker.cond67_time stats.Checker.branches stats.Checker.total_time
        stats.Checker.replay_nodes stats.Checker.dropped_covers stats.Checker.forward_leaves
        stats.Checker.mvf_leaves;
      let code = Checker.exit_code verdict in
      if code <> 0 then exit code
  in
  let doc =
    "Independently audit a stored certificate artifact: rebuild conditions (5)–(7) from the \
     artifact alone and certify each by walking a refined cover: the stored one, or one the \
     check proposes by a recording search.  Exits nonzero on rejection."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ dir $ scenario_arg $ diverse $ deadline)

(* --- train ----------------------------------------------------------- *)

let train_cmd =
  let hidden =
    Arg.(value & opt int 10 & info [ "hidden" ] ~docv:"N" ~doc:"Hidden-layer width.")
  in
  let population =
    Arg.(value & opt int 24 & info [ "population" ] ~docv:"N" ~doc:"CMA-ES population size.")
  in
  let iterations =
    Arg.(value & opt int 200 & info [ "iterations" ] ~docv:"N" ~doc:"CMA-ES iterations per phase.")
  in
  let out =
    Arg.(value & opt string "controller.nn" & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let robustify =
    Arg.(
      value & flag
      & info [ "robustify" ]
          ~doc:
            "Add a second training phase with perturbed starts covering the domain of interest \
             (recommended before verification).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let run hidden population iterations out robustify seed =
    let rng = Rng.create seed in
    let path = Path.paper_training_path in
    Format.printf "phase 1: tracking the training path...@.";
    let r1 = Training.train ~hidden ~population ~iterations ~sigma:0.6 ~rng path in
    Format.printf "  cost %.1f@." r1.Training.final_cost;
    let final =
      if robustify then begin
        Format.printf "phase 2: robustifying from perturbed starts...@.";
        let perturbed =
          [ (4.0, 0.0); (-4.0, 0.0); (4.0, 1.3); (-4.0, -1.3); (-4.0, 1.3); (4.0, -1.3);
            (0.0, 1.4); (0.0, -1.4) ]
        in
        let r2 =
          Training.train ~hidden ~population ~iterations ~sigma:0.2 ~perturbed
            ~perturbed_steps:200 ~initial:r1.Training.network ~rng path
        in
        Format.printf "  cost %.1f@." r2.Training.final_cost;
        r2.Training.network
      end
      else r1.Training.network
    in
    Nn.save final out;
    Format.printf "saved controller to %s@." out
  in
  let doc = "Train an NN path-following controller by CMA-ES policy search." in
  Cmd.v
    (Cmd.info "train" ~doc)
    Term.(const run $ hidden $ population $ iterations $ out $ robustify $ seed)

(* --- portrait -------------------------------------------------------- *)

let portrait_cmd =
  let run { Scenario.closed; config; _ } seed =
    let report = Engine.verify ~config ~rng:(Rng.create seed) closed.Plant.system in
    (match report.Engine.outcome with
    | Engine.Proved cert ->
      let p = Template.p_matrix cert.Engine.template cert.Engine.coeffs in
      Format.printf "# ellipse W(x) = %.6f@." cert.Engine.level;
      Array.iter
        (fun (x, y) -> Format.printf "%.5f %.5f@." x y)
        (Levelset.boundary_points ~p ~level:cert.Engine.level ~n:90)
    | Engine.Failed reason ->
      Format.printf "# verification failed: %s@." (Cegis.string_of_failure reason));
    List.iteri
      (fun k tr ->
        if k < 10 then begin
          Format.printf "@.# trajectory %d@." k;
          Array.iter (fun s -> Format.printf "%.5f %.5f@." s.(0) s.(1)) tr.Ode.states
        end)
      report.Engine.traces
  in
  let doc = "Phase-portrait data: trajectories and barrier level set (Figure 5)." in
  Cmd.v (Cmd.info "portrait" ~doc) Term.(const run $ case_study_term $ seed_arg)

(* --- falsify ----------------------------------------------------------- *)

let falsify_cmd =
  let budget =
    Arg.(value & opt int 300 & info [ "budget" ] ~docv:"N" ~doc:"Simulation budget.")
  in
  let run { Scenario.closed; config; _ } seed budget =
    let options = { Falsify.default_options with Falsify.budget } in
    match
      Falsify.falsify ~options ~rng:(Rng.create seed)
        ~field:closed.Plant.system.Engine.numeric_field
        ~x0_rect:config.Engine.x0_rect ~safe_rect:config.Engine.safe_rect ()
    with
    | Falsify.Falsified { x0; robustness; trace } ->
      Format.printf "UNSAFE: from (%.4f, %.4f) the trajectory leaves the safe set@." x0.(0)
        x0.(1);
      Format.printf "  robustness %.4f after %d samples@." robustness (Ode.trace_length trace)
    | Falsify.Not_falsified { best_robustness; evaluations; best_x0 } ->
      Format.printf
        "no violation found in %d rollouts (closest approach %.4f from (%.4f, %.4f))@."
        evaluations best_robustness best_x0.(0) best_x0.(1)
  in
  let doc = "Search for an unsafe trajectory (robustness-minimizing falsification)." in
  Cmd.v (Cmd.info "falsify" ~doc) Term.(const run $ case_study_term $ seed_arg $ budget)

(* --- lyapunov ---------------------------------------------------------- *)

let lyapunov_cmd =
  let run (e : Scenario.elaborated) seed =
    let report = Lyapunov.verify ~rng:(Rng.create seed) e.Scenario.closed.Plant.system in
    (match report.Lyapunov.outcome with
    | Lyapunov.Proved cert ->
      Format.printf "STABLE: Lyapunov-like generator W(x) = %s@."
        (Expr.to_string (Template.w_expr cert.Lyapunov.template cert.Lyapunov.coeffs))
    | Lyapunov.Failed reason ->
      Format.printf "INCONCLUSIVE: %s@." (Cegis.string_of_failure reason));
    let st = report.Lyapunov.stats in
    Format.printf "  %d iteration(s), LP %.3fs, SMT %.3fs, sim %.3fs, total %.3fs@."
      st.Engine.candidate_iterations st.Engine.lp_time st.Engine.smt5_time st.Engine.sim_time
      st.Engine.total_time
  in
  let doc = "Prove practical stability via simulation-guided Lyapunov analysis." in
  Cmd.v (Cmd.info "lyapunov" ~doc) Term.(const run $ case_study_term $ seed_arg)

(* --- smt2 -------------------------------------------------------------- *)

let smt2_cmd =
  let dir =
    Arg.(value & opt string "queries" & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run { Scenario.closed; config; _ } seed dir =
    let system = closed.Plant.system in
    let report = Engine.verify ~config ~rng:(Rng.create seed) system in
    match report.Engine.outcome with
    | Engine.Failed reason ->
      Format.printf "verification failed (%s); no certificate to export@."
        (Cegis.string_of_failure reason)
    | Engine.Proved cert ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let files = Engine.dump_smt2 system cert ~dir in
      Format.printf "wrote %d dReal-compatible queries (expected answer: unsat):@."
        (List.length files);
      List.iter (Format.printf "  %s@.") files
  in
  let doc = "Verify, then export the certificate's SMT queries as .smt2 files." in
  Cmd.v (Cmd.info "smt2" ~doc) Term.(const run $ case_study_term $ seed_arg $ dir)

(* --- report-validate --------------------------------------------------- *)

let report_validate_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Run-report JSON file (written by verify --report).")
  in
  let min_coverage =
    let doc =
      "Additionally require the per-stage times to sum to at least $(docv) (a fraction in \
       [0,1]) of the reported total_seconds."
    in
    Arg.(value & opt (some float) None & info [ "min-coverage" ] ~docv:"FRAC" ~doc)
  in
  let run file min_coverage =
    match Obs.Json.read_file file with
    | Error msg ->
      Format.eprintf "report-validate: %s: %s@." file msg;
      exit 1
    | Ok json -> (
      match Obs.Report.validate ?min_stage_coverage:min_coverage json with
      | Ok () ->
        Format.printf "%s: valid %s (schema version %d)@." file Obs.Report.schema_name
          Obs.Report.schema_version
      | Error msg ->
        Format.eprintf "report-validate: %s: %s@." file msg;
        exit 1)
  in
  let doc =
    "Validate a JSON run report against the safebarrier.run_report schema (CI gating for \
     verify --report)."
  in
  Cmd.v (Cmd.info "report-validate" ~doc) Term.(const run $ file $ min_coverage)

(* --- store-fsck -------------------------------------------------------- *)

let store_fsck_cmd =
  let store =
    let doc = "Certificate store directory to scan." in
    Arg.(value & opt string "data/certs" & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let quarantine =
    let doc =
      "Move bad entries into <store>/.quarantine so lookups can never serve them (the serve \
       daemon always scans with this on).  Without it the scan only reports."
    in
    Arg.(value & flag & info [ "quarantine" ] ~doc)
  in
  let run store quarantine =
    let report = Store.fsck ~quarantine ~root:store () in
    Format.printf "scanned %d entr%s: %d healthy, %d bad@." report.Store.scanned
      (if report.Store.scanned = 1 then "y" else "ies")
      report.Store.healthy
      (List.length report.Store.findings);
    List.iter
      (fun f ->
        Format.printf "  %s: %s%s@." f.Store.fingerprint
          (Store.string_of_issue f.Store.issue)
          (match f.Store.quarantined_to with
          | Some dest -> " -> quarantined to " ^ dest
          | None -> ""))
      report.Store.findings;
    if report.Store.findings <> [] then exit 1
  in
  let doc =
    "Integrity-scan a certificate store: detect checksum failures, unparseable artifacts, \
     wrong-address entries, and missing/mismatched network.nn files; optionally quarantine \
     them.  Exits 1 when anything is wrong."
  in
  Cmd.v (Cmd.info "store-fsck" ~doc) Term.(const run $ store $ quarantine)

(* --- serve ------------------------------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path." in
  Arg.(value & opt string "safebarrier.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let workers =
    let doc = "Worker domains executing verification requests concurrently." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_capacity =
    let doc =
      "Bounded request-queue capacity; requests arriving while it is full are shed with a \
       structured {\"status\":\"shed\"} response."
    in
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let request_timeout =
    let doc = "Default per-request budget in seconds (requests may set their own, tighter)." in
    Arg.(value & opt (some float) None & info [ "request-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let serve_deadline =
    let doc = "Serve-level lifetime in seconds; on expiry the daemon drains and exits 0." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let drain_grace =
    let doc =
      "On SIGTERM/SIGINT: seconds to let queued and in-flight requests finish before \
       time-boxing them via budget cancellation."
    in
    Arg.(value & opt float 5.0 & info [ "drain-grace" ] ~docv:"SECONDS" ~doc)
  in
  let store =
    let doc =
      "Certificate store fronting every request (exact hits audited, donors warm-started, \
       fresh proofs exported).  The store is fsck'd — bad entries quarantined — before the \
       daemon serves from it."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let report_file =
    let doc = "Write the serve-level JSON report (request counts, hit rate, queue high-water, \
               p50/p99 latency) to $(docv) during drain." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let scenario =
    let doc =
      "Default scenario file for requests that name neither a plant nor a scenario \
       (elaborated once at startup; a broken file aborts before the socket opens)."
    in
    Arg.(value & opt (some file) None & info [ "scenario" ] ~docv:"FILE" ~doc)
  in
  let run socket workers queue_capacity request_timeout serve_deadline drain_grace store
      scenario report_file =
    (* A daemon must never serve from a store an earlier crash corrupted:
       scan and quarantine before accepting the first request. *)
    (match store with
    | None -> ()
    | Some root ->
      let fsck = Store.fsck ~quarantine:true ~root () in
      Format.printf "store fsck: %d scanned, %d quarantined@." fsck.Store.scanned
        (List.length fsck.Store.findings);
      List.iter
        (fun f ->
          Format.printf "  quarantined %s: %s@." f.Store.fingerprint
            (Store.string_of_issue f.Store.issue))
        fsck.Store.findings);
    let cfg =
      {
        (Daemon.default_config ~socket_path:socket) with
        Daemon.workers;
        queue_capacity;
        default_timeout = request_timeout;
        deadline = serve_deadline;
        drain_grace;
      }
    in
    let ctrl = Daemon.control () in
    let drain_signal _ = Daemon.request_drain ctrl in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain_signal);
    Format.printf "safebarrier serve: listening on %s (%d workers, queue %d)@." socket workers
      queue_capacity;
    Format.print_flush ();
    let handler =
      try Serve_handler.make ?store ?scenario ()
      with Invalid_argument msg ->
        Format.eprintf "serve: %s@." msg;
        exit 2
    in
    let stats = Daemon.run ~control:ctrl ~handler cfg in
    let c = stats.Daemon.counts in
    Format.printf
      "drained %s: %d received | %d ok, %d failed, %d timeout, %d error, %d invalid, %d shed, \
       %d ping | queue high-water %d@."
      (if stats.Daemon.timeboxed then "(time-boxed)" else "cleanly")
      c.Daemon.received c.Daemon.ok c.Daemon.failed c.Daemon.timed_out c.Daemon.errors
      c.Daemon.invalid c.Daemon.shed c.Daemon.pings stats.Daemon.queue_high_water;
    (match report_file with
    | None -> ()
    | Some path ->
      Obs.Report.write_file path (Daemon.serve_report cfg stats);
      Format.printf "serve report: %s@." path)
    (* Graceful drain is the success path: exit 0. *)
  in
  let doc =
    "Run the fault-tolerant batch verification daemon: line-oriented JSON requests over a \
     Unix socket, bounded queue with load shedding, per-request budgets, crash isolation, \
     and graceful drain on SIGTERM/SIGINT."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ workers $ queue_capacity $ request_timeout $ serve_deadline
      $ drain_grace $ store $ scenario $ report_file)

(* --- request (client) -------------------------------------------------- *)

let request_cmd =
  let id =
    let doc = "Request id echoed in the response." in
    Arg.(value & opt string "req-1" & info [ "id" ] ~docv:"ID" ~doc)
  in
  let timeout =
    let doc = "Per-request budget in seconds." in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let raw =
    let doc = "Send $(docv) verbatim as one request line instead of building a verify request \
               (protocol testing: malformed or hand-written lines)." in
    Arg.(value & opt (some string) None & info [ "raw" ] ~docv:"LINE" ~doc)
  in
  let ping =
    let doc = "Send a ping instead of a verify request." in
    Arg.(value & flag & info [ "ping" ] ~doc)
  in
  let count =
    let doc = "Send the request $(docv) times (ids suffixed -1, -2, ...)." in
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"N" ~doc)
  in
  let wait_ready =
    let doc = "Retry the connection for up to $(docv) seconds while the daemon starts." in
    Arg.(value & opt float 5.0 & info [ "wait-ready" ] ~docv:"SECONDS" ~doc)
  in
  let expect =
    let doc = "Exit 1 unless every response has this status (e.g. ok, shed, invalid)." in
    Arg.(value & opt (some string) None & info [ "expect-status" ] ~docv:"STATUS" ~doc)
  in
  let plant =
    let doc = "Registry plant to verify against (daemon-side resolution)." in
    Arg.(value & opt (some string) None & info [ "plant" ] ~docv:"NAME" ~doc)
  in
  let scenario =
    let doc = "Scenario file path, resolved on the daemon's filesystem; overrides --plant." in
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"FILE" ~doc)
  in
  let run socket id network plant scenario width seed gamma timeout lie linear_terms no_cache
      raw ping count wait_ready expect =
    let lines =
      if ping then [ Protocol.ping_line ~id ]
      else
        match raw with
        | Some line -> [ line ]
        | None ->
          List.init count (fun i ->
              let id = if count = 1 then id else Printf.sprintf "%s-%d" id (i + 1) in
              Protocol.verify_line ~id ?network_path:network ?plant ?scenario_path:scenario
                ?width ~seed ?gamma ?timeout ~lie ~linear_terms ~no_cache ())
    in
    let deadline = Timing.now () +. wait_ready in
    let rec connect () =
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      match Unix.connect fd (ADDR_UNIX socket) with
      | () -> fd
      | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
        when Timing.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.05;
        connect ()
      | exception e ->
        Unix.close fd;
        raise e
    in
    let fd =
      try connect ()
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "request: cannot connect to %s: %s@." socket (Unix.error_message e);
        exit 1
    in
    let out = Unix.out_channel_of_descr fd in
    List.iter
      (fun line ->
        output_string out line;
        output_char out '\n')
      lines;
    flush out;
    let ic = Unix.in_channel_of_descr fd in
    let bad = ref 0 in
    (try
       for _ = 1 to List.length lines do
         let line = input_line ic in
         print_endline line;
         match expect with
         | None -> ()
         | Some want -> (
           match Result.bind (Obs.Json.of_string line) (fun j ->
                     Option.to_result ~none:"no status" (Protocol.response_status j))
           with
           | Ok got when String.equal got want -> ()
           | Ok _ | Error _ -> incr bad)
       done
     with End_of_file ->
       Format.eprintf "request: connection closed before all responses arrived@.";
       exit 1);
    Unix.close fd;
    if !bad > 0 then exit 1
  in
  let doc =
    "Send verification requests to a running serve daemon and print the response lines \
     (one JSON object per line, correlated by id)."
  in
  Cmd.v
    (Cmd.info "request" ~doc)
    Term.(
      const run $ socket_arg $ id $ network_arg $ plant $ scenario $ width_arg $ seed_arg
      $ gamma_arg $ timeout $ lie_arg $ linear_template_arg $ no_cache_arg $ raw $ ping $ count
      $ wait_ready $ expect)

(* --- scenarios --------------------------------------------------------- *)

let scenarios_cmd =
  let list_cmd =
    let run () =
      Format.printf "plants:@.";
      List.iter
        (fun p ->
          Format.printf "  %-22s v%s  %dD, %d control slot%s — %s@." p.Plant.name
            p.Plant.version
            (Array.length p.Plant.vars)
            p.Plant.control_dim
            (if p.Plant.control_dim = 1 then "" else "s")
            p.Plant.description)
        (Registry.plants ());
      Format.printf "@.scenarios:@.";
      List.iter
        (fun e ->
          Format.printf "  %-28s %-20s %-12s %s@." e.Registry.name
            e.Registry.scenario.Scenario.plant
            (match e.Registry.scenario.Scenario.expectation with
            | Some Scenario.Should_fail -> "should-fail"
            | Some Scenario.Should_prove | None -> "should-prove")
            e.Registry.description)
        (Registry.scenarios ())
    in
    let doc = "List the registered plants and built-in scenarios." in
    Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())
  in
  let show_cmd =
    let name_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"NAME" ~doc:"Built-in scenario name (see $(b,scenarios list)).")
    in
    let run name =
      match Registry.find_scenario name with
      | None ->
        Format.eprintf "scenarios show: unknown scenario %S@." name;
        exit 2
      | Some entry -> (
        match Registry.elaborate entry.Registry.scenario with
        | Error msg ->
          Format.eprintf "scenarios show: %s@." msg;
          exit 2
        | Ok e ->
          let closed = e.Scenario.closed in
          Format.printf "%s — %s@." entry.Registry.name entry.Registry.description;
          Format.printf "  plant:      %s v%s (%s)@." closed.Plant.plant.Plant.name
            closed.Plant.plant.Plant.version
            (String.concat ", " (Array.to_list closed.Plant.plant.Plant.vars));
          Format.printf "  controller: %s@." (Plant.controller_label closed.Plant.controller);
          Format.printf "  fingerprint (plant): %s@." (Artifact.hash_plant closed.Plant.id);
          Format.printf "@.%s@."
            (Obs.Json.to_string ~indent:true (Scenario.to_json (Scenario.re_emit e))))
    in
    let doc = "Show one built-in scenario: plant, controller, and its full scenario document." in
    Cmd.v (Cmd.info "show" ~doc) Term.(const run $ name_arg)
  in
  let run_cmd =
    let only =
      let doc = "Comma-separated scenario names to run (default: all built-ins)." in
      Arg.(value & opt (some string) None & info [ "only" ] ~docv:"NAMES" ~doc)
    in
    let report_file =
      let doc = "Write a structured JSON suite report (one stage per scenario) to $(docv)." in
      Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
    in
    let run only jobs seed report_file =
      let entries =
        match only with
        | None -> Registry.scenarios ()
        | Some spec ->
          List.map
            (fun n ->
              match Registry.find_scenario n with
              | Some e -> e
              | None ->
                Format.eprintf "scenarios run: unknown scenario %S@." n;
                exit 2)
            (String.split_on_char ',' spec)
      in
      Obs.Metrics.enable ();
      let rows, total =
        Timing.time @@ fun () ->
        List.map
          (fun entry ->
            let scenario = { entry.Registry.scenario with Scenario.jobs = Some jobs } in
            match Registry.elaborate scenario with
            | Error msg ->
              Format.eprintf "scenarios run: %s: %s@." entry.Registry.name msg;
              exit 2
            | Ok e ->
              let report, dt =
                Timing.time (fun () ->
                    Engine.verify ~config:e.Scenario.config ~rng:(Rng.create seed)
                      e.Scenario.closed.Plant.system)
              in
              let verdict =
                match report.Engine.outcome with
                | Engine.Proved _ -> "proved"
                | Engine.Failed _ -> "failed"
              in
              let ok =
                Scenario.expectation_met scenario.Scenario.expectation report.Engine.outcome
              in
              Format.printf "%-28s %8.2fs  %s%s@." entry.Registry.name dt verdict
                (if ok then "" else "  UNEXPECTED");
              (entry.Registry.name, dt, ok, verdict)
          )
          entries
      in
      let failures = List.filter (fun (_, _, ok, _) -> not ok) rows in
      Format.printf "%d/%d scenarios matched their expectation@."
        (List.length rows - List.length failures)
        (List.length rows);
      (match report_file with
      | None -> ()
      | Some path ->
        let doc =
          Obs.Report.make
            ~meta:
              [
                ("suite", Obs.Json.String "scenarios");
                ("jobs", Obs.Json.Int jobs);
                ("seed", Obs.Json.Int seed);
                ("scenarios", Obs.Json.Int (List.length rows));
                ("mismatches", Obs.Json.Int (List.length failures));
              ]
            ~stages:
              (List.map (fun (name, dt, _, _) -> Obs.Report.stage ~name ~seconds:dt ()) rows)
            ~total_seconds:total
            ~counters:(Obs.Metrics.dump_counters () |> List.filter (fun (_, v) -> v <> 0))
            ()
        in
        Obs.Report.write_file path doc;
        Format.printf "suite report: %s@." path);
      if failures <> [] then exit 1
    in
    let doc =
      "Run built-in scenarios and check each against its should-prove/should-fail \
       expectation; exits 1 on any mismatch."
    in
    Cmd.v (Cmd.info "run" ~doc) Term.(const run $ only $ jobs_arg $ seed_arg $ report_file)
  in
  let doc = "Inspect and run the built-in plant/scenario registry." in
  Cmd.group (Cmd.info "scenarios" ~doc) [ list_cmd; show_cmd; run_cmd ]

(* --- plan -------------------------------------------------------------- *)

let plan_cmd =
  let pose_conv kind =
    Arg.(
      value
      & opt (t3 float float float) (if kind = `Start then (0.0, 0.0, 0.0) else (10.0, 10.0, 0.0))
      & info
          [ (match kind with `Start -> "from" | `Goal -> "to") ]
          ~docv:"X,Y,THETA"
          ~doc:(match kind with `Start -> "Start pose." | `Goal -> "Goal pose."))
  in
  let radius =
    Arg.(value & opt float 2.0 & info [ "radius"; "r" ] ~docv:"R" ~doc:"Minimum turn radius.")
  in
  let run (sx, sy, st) (gx, gy, gt) radius =
    let start = { Dubins_car.x = sx; y = sy; theta = st } in
    let goal = { Dubins_car.x = gx; y = gy; theta = gt } in
    let plan = Dubins_path.shortest ~radius start goal in
    Format.printf "# %s path, length %.4f@." (Dubins_path.word_name plan.Dubins_path.word)
      plan.Dubins_path.length;
    Array.iter
      (fun p -> Format.printf "%.4f %.4f %.4f@." p.Dubins_car.x p.Dubins_car.y p.Dubins_car.theta)
      (Dubins_path.sample ~ds:(radius /. 10.0) plan)
  in
  let doc = "Plan a shortest Dubins path between two poses (prints sampled poses)." in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const run $ pose_conv `Start $ pose_conv `Goal $ radius)

let () =
  let doc = "Barrier-certificate safety verification for NN-controlled CPS (DAC'18 reproduction)." in
  let info = Cmd.info "safebarrier" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            verify_cmd;
            export_cmd;
            check_cmd;
            train_cmd;
            portrait_cmd;
            falsify_cmd;
            lyapunov_cmd;
            smt2_cmd;
            report_validate_cmd;
            plan_cmd;
            serve_cmd;
            request_cmd;
            store_fsck_cmd;
            scenarios_cmd;
          ]))
