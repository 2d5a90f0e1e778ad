(* Closed-loop driver for the workloads whose op is one cold
   [Engine.verify]: dubins-cold and scenario-suite.

   An op is a fully elaborated problem plus the engine's rng seed and the
   verdict it must reach.  Ops are grouped into units of one or more lanes,
   each lane run in order on its own domain; the timed phase runs whole
   units until the time is up.  Everything the per-layer metrics need
   comes from the engine's own [stats], the traces it returns, and the
   [Obs.Metrics] counters; nothing inside the program is instrumented. *)

open Common

type expect = Prove | Fail_structurally

type op = {
  label : string;
  closed : Plant.closed;
  config : Engine.config;
  rng_seed : int;
  expect : expect;
}

type record = {
  index : int;  (** into the op array *)
  wall : float;
  ok : bool;
  stats : Engine.stats;
  rk4_steps : int;
  cert : Engine.certificate option;
}

type workload = {
  ops : op array;
  units : int array array array;
      (** unit after unit; in a unit, the op indices of each lane *)
  repeat_counts : bool;
      (** every unit does identical work, so its counter deltas must repeat
          exactly *)
  warmup : int array array;  (** the lanes set-up runs once, untimed *)
}

let verdict_ok expect (outcome : Engine.outcome) =
  match (expect, outcome) with
  | Prove, Engine.Proved _ -> true
  | Fail_structurally, Engine.Failed (Engine.Timeout _ | Engine.Seed_shortfall _) -> false
  | Fail_structurally, Engine.Failed _ -> true
  | _ -> false

let run_op ops index =
  let op = ops.(index) in
  let report, wall =
    Timing.time (fun () ->
        Engine.verify ~config:op.config ~rng:(Rng.create op.rng_seed) op.closed.Plant.system)
  in
  {
    index;
    wall;
    ok = verdict_ok op.expect report.Engine.outcome;
    stats = report.Engine.stats;
    (* one RK4 step per recorded sample after the first *)
    rk4_steps =
      List.fold_left (fun acc tr -> acc + Ode.trace_length tr - 1) 0 report.Engine.traces;
    cert = (match report.Engine.outcome with Engine.Proved c -> Some c | Engine.Failed _ -> None);
  }

(* Run every lane of [lanes] at once, each on a domain of the program's own
   pool; the records of all lanes. *)
let run_lanes ops lanes =
  List.concat
    (Array.to_list
       (Pool.parallel_map ~jobs:(Array.length lanes)
          (fun idx -> Array.to_list (Array.map (run_op ops) idx))
          lanes))

let run_warmup wl = ignore (run_lanes wl.ops wl.warmup)

(* The engine's stage self-times of one op: simulation, LP, condition (5)
   and the level search (conditions (6)/(7)). *)
let covered (st : Engine.stats) =
  st.Engine.sim_time +. st.Engine.lp_time +. st.Engine.smt5_time +. st.Engine.smt67_time

(* The ops of one timed phase, gathered over the rounds of a run. *)
type phase = {
  clock : clock;
  mutable records : record list;  (** newest first *)
  mutable unit_counts : (string * int) list list;  (** counter deltas of each unit *)
}

let phase seconds = { clock = clock seconds; records = []; unit_counts = [] }

let run_round p ~round wl =
  run_units p.clock ~round (fun k ->
      let before = snapshot () in
      p.records <- List.rev_append (run_lanes wl.ops wl.units.(k mod Array.length wl.units)) p.records;
      p.unit_counts <- delta ~before ~after:(snapshot ()) :: p.unit_counts)

let throughput p = float_of_int (List.length p.records) /. p.clock.used

let failures p = List.length (List.filter (fun r -> not r.ok) p.records)

(* --- untimed checks of the traced run ------------------------------------ *)

(* Is the exact Lie derivative of the certificate at [x] within the
   condition-(5) margin?  Then a δ-sat refutation there is a δ gray-zone
   answer, not a violation. *)
let decreases_at op (cert : Engine.certificate) x =
  let f = op.closed.Plant.system.Engine.numeric_field 0.0 x in
  let basis = Template.basis_lie cert.Engine.template x f in
  let lie = ref 0.0 in
  Array.iteri (fun k b -> lie := !lie +. (cert.Engine.coeffs.(k) *. b)) basis;
  !lie < -.op.config.Engine.gamma

(* Re-prove a certificate the engine returned with the independent checker,
   exactly as a store hit would be audited.  A condition-(5) refutation
   whose witness the certificate does decrease at is accepted: the audit
   decides at the recorded δ while CEGIS refines δ, and a margin below δ
   (the inverted pendulum's, see DESIGN.md §5k) lets both answers stand. *)
let audit op cert =
  let c = op.closed in
  let fingerprint =
    Artifact.fingerprint ?network:c.Plant.network ~plant:c.Plant.id c.Plant.system op.config
  in
  let artifact = Artifact.make ~fingerprint ~plant:c.Plant.id ~config:op.config cert in
  match Checker.audit ?network:c.Plant.network ~system:c.Plant.system artifact with
  | Checker.Certified, _ -> true
  | Checker.Rejected (Checker.Condition_refuted { condition = 5; witness }), _
    when decreases_at op cert
           (Array.map
              (fun v -> Option.value ~default:0.0 (List.assoc_opt v witness))
              c.Plant.system.Engine.vars) ->
    log "%s: re-audit refuted condition (5) in the δ gray zone" op.label;
    true
  | Checker.Rejected why, _ ->
    log "%s: re-audit rejected: %s" op.label (Checker.string_of_rejection why);
    false

(* Time the level search on its own: the lower loop of the paper's
   Figure 1, re-run on the generator the engine accepted. *)
let level_search_s op (cert : Engine.certificate) =
  let c = op.config in
  let spec =
    {
      Level_search.vars = op.closed.Plant.system.Engine.vars;
      x0_rect = c.Engine.x0_rect;
      safe_rect = c.Engine.safe_rect;
      unsafe_rect = c.Engine.safe_rect;
      smt = c.Engine.smt;
      max_iters = c.Engine.max_level_iters;
    }
  in
  snd
    (Timing.time (fun () -> Level_search.search spec cert.Engine.template cert.Engine.coeffs))

(* --- the run --------------------------------------------------------------- *)

let dump wl =
  Array.iteri
    (fun u lanes ->
      Array.iteri
        (fun l ops ->
          Array.iter
            (fun i ->
              Format.printf "unit %d lane %d: %s rng=%d@." u l wl.ops.(i).label wl.ops.(i).rng_seed)
            ops)
        lanes)
    wl.units

(* The per-layer metrics of a traced run: [plain] and [traced] ran in
   every round, untraced and with [Obs.Metrics] enabled; [counts] are the
   counter deltas of the traced phase and [wl] the last round's workload. *)
let traced ~parts ~plain ~traced:p ~counts wl =
  let records = List.rev p.records in
  let ops = List.length records in
  let st f = mean (List.map (fun r -> f r.stats) records) in
  (* Invariants: stage coverage, and exact repeat of the unit counts where
     every unit does the same work. *)
  let coverage r = covered r.stats /. r.wall in
  let lowest =
    List.fold_left (fun acc r -> if coverage r < coverage acc then r else acc) (List.hd records)
      records
  in
  log "lowest op stage coverage %.3f: %s rng=%d, %.6f s of %.6f s" (coverage lowest)
    wl.ops.(lowest.index).label wl.ops.(lowest.index).rng_seed (covered lowest.stats) lowest.wall;
  let stage_coverage =
    sum (List.map (fun r -> covered r.stats) records) /. sum (List.map (fun r -> r.wall) records)
  in
  let errors =
    coverage_errors stage_coverage
    @
    if wl.repeat_counts then begin
      let keys = [ "lp.pivots"; "solver.branches"; "tape.compile"; "cegis.cex_cuts" ] in
      let project d = List.map (fun k -> (k, List.assoc k d)) keys in
      let per_unit = List.rev_map project p.unit_counts in
      log "unit counts: %s"
        (String.concat " | "
           (List.map
              (fun d -> String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) d))
              per_unit));
      match per_unit with
      | first :: rest when List.exists (fun d -> d <> first) rest ->
        [ "unit counters differ between units" ]
      | _ -> []
    end
    else []
  in
  (* Untimed: re-audit each distinct proved certificate and time its level
     search alone. *)
  let distinct =
    List.sort_uniq (fun (i, _) (j, _) -> compare i j)
      (List.filter_map (fun r -> Option.map (fun c -> (r.index, c)) r.cert) records)
  in
  let rejected = List.filter (fun (i, c) -> not (audit wl.ops.(i) c)) distinct in
  let level_s = List.map (fun (i, c) -> level_search_s wl.ops.(i) c) distinct in
  let steps = List.fold_left (fun acc r -> acc + r.rk4_steps) 0 records in
  let sim = List.fold_left (fun acc r -> acc +. r.stats.Engine.sim_time) 0.0 records in
  let metrics =
    [
      m "ode.sim_s_per_op" "s" (st (fun s -> s.Engine.sim_time));
      m "ode.rk4_steps" "count" (float_of_int steps /. float_of_int ops);
      m "ode.steps_per_s" "1/s" (ratio (float_of_int steps) sim);
      m "lp.solve_s_per_op" "s" (st (fun s -> s.Engine.lp_time));
      m "lp.rows" "count" (st (fun s -> float_of_int s.Engine.lp_rows));
      m "lp.calls" "count" (st (fun s -> float_of_int s.Engine.lp_calls));
      m "smt.cond5_s_per_op" "s" (st (fun s -> s.Engine.smt5_time));
      m "smt.cond67_s_per_op" "s" (st (fun s -> s.Engine.smt67_time));
      m "cegis.iterations" "count" (st (fun s -> float_of_int s.Engine.candidate_iterations));
      m "level_search.s_per_op" "s" (mean level_s);
      m "trace.stage_coverage" "ratio" stage_coverage;
      m "trace.overhead_ratio" "ratio" (throughput p /. throughput plain);
    ]
    @ counter_metrics ~ops counts
    @ parts
  in
  {
    attempted = ops + List.length plain.records;
    failed = failures plain + failures p + List.length rejected;
    invariant_errors = errors;
    metrics;
  }

let run ~args ~setup =
  if args.dump_ops then begin
    dump (fst (setup ~warmup:false ()));
    exit 0
  end;
  let share = if args.trace then args.seconds /. 2.0 else args.seconds in
  let plain = phase share and p = phase share in
  let before = snapshot () in
  let setup_s, parts, wls =
    rounds
      ~setup:(fun () -> setup ~warmup:true ())
      ~round:(fun round wl ->
        run_round plain ~round wl;
        if args.trace then begin
          settle ();
          Obs.Metrics.enable ();
          run_round p ~round wl;
          Obs.Metrics.disable ()
        end;
        wl)
  in
  if args.trace then
    traced ~parts ~plain ~traced:p ~counts:(delta ~before ~after:(snapshot ()))
      (List.nth wls (setups - 1))
  else
    {
      attempted = List.length plain.records;
      failed = failures plain;
      invariant_errors = [];
      metrics =
        end_to_end ~setup_s ~elapsed:plain.clock.used ~failed:(failures plain)
          (List.map (fun r -> r.wall) plain.records);
    }
