type source =
  | Cold
  | Cache_hit of { fingerprint : string; audit : Checker.stats }
  | Warm_started of { donor : string }

type result = {
  report : Engine.report;
  source : source;
  fingerprint : Artifact.fingerprint;
  exported : string option;
}

let string_of_source = function
  | Cold -> "cold"
  | Cache_hit { fingerprint; audit } ->
    Printf.sprintf "cache hit %s (audited in %.3fs)" fingerprint audit.Checker.total_time
  | Warm_started { donor } -> Printf.sprintf "warm start from %s" donor

(* A hit costs one audit and nothing else; the report reflects that. *)
let report_of_hit cert (audit : Checker.stats) =
  {
    Engine.outcome = Engine.Proved cert;
    stats =
      {
        (Cegis.fresh_stats ()) with
        Engine.smt5_time = audit.Checker.cond5_time;
        smt5_calls = 1;
        smt5_branches = audit.Checker.branches;
        smt67_time = audit.Checker.cond67_time;
        smt6_time = audit.Checker.cond6_time;
        smt7_time = audit.Checker.cond7_time;
        total_time = audit.Checker.total_time;
      };
    traces = [];
    counterexamples = [];
    cover = None;
  }

(* The audit re-proves conditions (5)-(7) against the rectangles, gamma and
   delta recorded in the artifact itself, so an artifact describing a weaker
   problem (shrunken rectangles, negative gamma) would audit clean against
   its own problem.  Before an audit can count as a hit, the artifact must
   therefore be bound to the *live* problem: its recorded fingerprint and
   every problem field the audit trusts must equal the current config's,
   bit-exactly.  Anything else is a miss, never a soundness hole. *)
let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rect_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (alo, ahi) (blo, bhi) -> float_bits_equal alo blo && float_bits_equal ahi bhi)
       a b

let plant_equal (a : Artifact.plant_id) (b : Artifact.plant_id) =
  String.equal a.Artifact.name b.Artifact.name
  && String.equal a.Artifact.version b.Artifact.version
  && String.equal a.Artifact.param_hash b.Artifact.param_hash

let binds_problem (a : Artifact.t) (fp : Artifact.fingerprint) (plant : Artifact.plant_id)
    (config : Engine.config) =
  String.equal a.Artifact.fingerprint.Artifact.combined fp.Artifact.combined
  && plant_equal a.Artifact.plant plant
  && float_bits_equal a.Artifact.gamma config.Engine.gamma
  && float_bits_equal a.Artifact.delta config.Engine.smt.Solver.delta
  && rect_equal a.Artifact.x0_rect config.Engine.x0_rect
  && rect_equal a.Artifact.safe_rect config.Engine.safe_rect

let provenance_stats (st : Engine.stats) source =
  [
    ("source", source);
    ("candidate_iterations", string_of_int st.Engine.candidate_iterations);
    ("level_iterations", string_of_int st.Engine.level_iterations);
    ("lp_calls", string_of_int st.Engine.lp_calls);
    ("smt5_branches", string_of_int st.Engine.smt5_branches);
    ("total_time", Printf.sprintf "%.6f" st.Engine.total_time);
  ]

let c_hits = Obs.Metrics.counter "cert_cache.hit"
let c_misses = Obs.Metrics.counter "cert_cache.miss"
let c_warm = Obs.Metrics.counter "cert_cache.warm_start"

let verify ?(config = Engine.default_config) ?(budget = Budget.unlimited) ?(use_cache = true)
    ?network ?(plant = Artifact.dubins_plant_id) ~store ~rng system =
  let fp = Artifact.fingerprint ?network ~plant system config in
  let exact_hit =
    if not use_cache then None
    else
      match Store.load ~root:store fp.Artifact.combined with
      | Error _ -> None
      | Ok entry when not (binds_problem entry.Store.artifact fp plant config) ->
        None (* artifact records a different problem: never a hit *)
      | Ok entry -> (
        match
          Obs.Trace.with_span "cache.audit" (fun () ->
              Checker.audit ~budget ?network ~system entry.Store.artifact)
        with
        | Checker.Certified, audit -> Some (entry, audit)
        | Checker.Rejected _, _ -> None (* stale/tampered entry: fall through to a real run *))
  in
  match exact_hit with
  | Some (entry, audit) ->
    Obs.Metrics.incr c_hits;
    {
      report = report_of_hit (Artifact.certificate entry.Store.artifact) audit;
      source = Cache_hit { fingerprint = fp.Artifact.combined; audit };
      fingerprint = fp;
      exported = None;
    }
  | None ->
    Obs.Metrics.incr c_misses;
    let donor = if use_cache then Store.find_nearby ~root:store fp else None in
    let warm_start =
      Option.map (fun e -> e.Store.artifact.Artifact.coeffs) donor
    in
    if warm_start <> None then Obs.Metrics.incr c_warm;
    let report = Engine.verify ~config ~budget ?warm_start ~rng system in
    let source =
      match donor with
      | Some e -> Warm_started { donor = e.Store.artifact.Artifact.fingerprint.Artifact.combined }
      | None -> Cold
    in
    let exported =
      match report.Engine.outcome with
      | Engine.Failed _ -> None
      | Engine.Proved cert ->
        let stats =
          provenance_stats report.Engine.stats
            (match source with Warm_started _ -> "warm" | _ -> "cold")
        in
        let artifact =
          Artifact.make ~fingerprint:fp ~plant ~config ?cover:report.Engine.cover ~stats cert
        in
        (* Refined once here, so that every later hit checks each leaf of
           the cover with one sweep.  Refining re-checks condition (5), so
           the report counts its seconds there and in the total: the
           stages still add up, and a caller timing the run by its report
           sees the refinement. *)
        let artifact, refine_s =
          Timing.time (fun () ->
              Obs.Trace.with_span "cache.refine" (fun () -> Checker.refine ~budget ~system artifact))
        in
        let st = report.Engine.stats in
        st.Engine.smt5_time <- st.Engine.smt5_time +. refine_s;
        st.Engine.total_time <- st.Engine.total_time +. refine_s;
        Some (Store.save ~root:store ?network artifact)
    in
    { report; source; fingerprint = fp; exported }
