(* Tests for the observability layer (lib/obs): JSON round-trips, span
   collection under the domain pool, exact counter merging, the
   zero-allocation disabled path, and the run-report schema (including a
   golden-file snapshot of the printer output). *)

(* Instruments are process-global; make each test start from a clean,
   disabled sink and leave it that way. *)
let with_clean_sinks f =
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Metrics.disable ();
      Obs.Trace.reset ();
      Obs.Metrics.reset ())
    f

(* --- Json ----------------------------------------------------------------- *)

let sample_doc =
  Obs.Json.Obj
    [
      ("null", Obs.Json.Null);
      ("flag", Obs.Json.Bool true);
      ("int", Obs.Json.Int (-42));
      ("float", Obs.Json.Float 0.125);
      ("text", Obs.Json.String "line\n\"quoted\"\tend");
      ("empty_list", Obs.Json.List []);
      ("empty_obj", Obs.Json.Obj []);
      ( "nested",
        Obs.Json.List
          [ Obs.Json.Int 1; Obs.Json.Obj [ ("k", Obs.Json.Float 2.5) ]; Obs.Json.Bool false ]
      );
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Obs.Json.of_string (Obs.Json.to_string ~indent sample_doc) with
      | Ok parsed ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip (indent=%b)" indent)
          true (parsed = sample_doc)
      | Error msg -> Alcotest.failf "parse failed: %s" msg)
    [ true; false ]

let test_json_errors () =
  let bad = [ "{"; "[1,]"; "tru"; "\"open"; "{\"a\":1} x"; "" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad

let test_json_accessors () =
  let doc = Obs.Json.Obj [ ("a", Obs.Json.Int 3); ("b", Obs.Json.Float 1.5) ] in
  Alcotest.(check bool) "member hit" true (Obs.Json.member "a" doc = Some (Obs.Json.Int 3));
  Alcotest.(check bool) "member miss" true (Obs.Json.member "z" doc = None);
  Alcotest.(check bool) "number of int" true (Obs.Json.number (Obs.Json.Int 3) = Some 3.0);
  Alcotest.(check bool) "number of float" true
    (Obs.Json.number (Obs.Json.Float 1.5) = Some 1.5);
  Alcotest.(check bool) "number of string" true
    (Obs.Json.number (Obs.Json.String "x") = None)

(* --- Trace ---------------------------------------------------------------- *)

(* Span nesting across pool workers: every task opens an outer span with a
   nested inner span; all spans must be collected once the batch returns,
   with parents resolved within the same domain and sane timestamps. *)
let test_trace_nesting_under_pool () =
  with_clean_sinks (fun () ->
      Obs.Trace.enable ();
      let n = 8 in
      let results =
        Pool.parallel_map ~jobs:4
          (fun i ->
            Obs.Trace.with_span "task" (fun () ->
                Obs.Trace.with_span "inner" (fun () -> 2 * i)))
          (Array.init n Fun.id)
      in
      Alcotest.(check bool) "results intact" true (results = Array.init n (fun i -> 2 * i));
      let spans = Obs.Trace.spans () in
      let by_id = Hashtbl.create 16 in
      List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace by_id s.Obs.Trace.id s) spans;
      let tasks = List.filter (fun s -> s.Obs.Trace.name = "task") spans in
      let inners = List.filter (fun s -> s.Obs.Trace.name = "inner") spans in
      Alcotest.(check int) "one task span per element" n (List.length tasks);
      Alcotest.(check int) "one inner span per element" n (List.length inners);
      List.iter
        (fun s ->
          Alcotest.(check bool) "task spans are roots" true (s.Obs.Trace.parent = None))
        tasks;
      List.iter
        (fun (s : Obs.Trace.span) ->
          match s.Obs.Trace.parent with
          | None -> Alcotest.fail "inner span lost its parent"
          | Some p ->
            let parent = Hashtbl.find by_id p in
            Alcotest.(check string) "parent is a task span" "task" parent.Obs.Trace.name;
            Alcotest.(check int) "parent on the same domain" parent.Obs.Trace.domain
              s.Obs.Trace.domain;
            Alcotest.(check bool) "nested inside parent" true
              (s.Obs.Trace.t_start >= parent.Obs.Trace.t_start
              && s.Obs.Trace.t_stop <= parent.Obs.Trace.t_stop))
        inners;
      List.iter
        (fun (s : Obs.Trace.span) ->
          Alcotest.(check bool) "non-negative duration" true (Obs.Trace.duration s >= 0.0))
        spans;
      (* spans () is sorted by start time. *)
      let rec sorted = function
        | (a : Obs.Trace.span) :: (b : Obs.Trace.span) :: rest ->
          a.Obs.Trace.t_start <= b.Obs.Trace.t_start && sorted (b :: rest)
        | _ -> true
      in
      Alcotest.(check bool) "sorted by start time" true (sorted spans))

let test_trace_records_exceptions () =
  with_clean_sinks (fun () ->
      Obs.Trace.enable ();
      (try Obs.Trace.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
      match Obs.Trace.spans () with
      | [ s ] -> Alcotest.(check string) "span closed on raise" "raises" s.Obs.Trace.name
      | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

(* --- Metrics -------------------------------------------------------------- *)

(* Counter adds from concurrent pool workers must merge exactly: totals for
   a fixed amount of work are independent of scheduling. *)
let test_counter_merge_exact () =
  with_clean_sinks (fun () ->
      Obs.Metrics.enable ();
      let c = Obs.Metrics.counter "test.merge" in
      let n = 1000 in
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i ->
             Obs.Metrics.add c (i + 1);
             Obs.Metrics.incr c)
           (Array.init n Fun.id));
      let expected = (n * (n + 1) / 2) + n in
      Alcotest.(check int) "exact merged total" expected (Obs.Metrics.value c);
      Alcotest.(check bool) "visible in dump" true
        (List.mem_assoc "test.merge" (Obs.Metrics.dump_counters ()));
      Alcotest.(check int) "dump agrees" expected
        (List.assoc "test.merge" (Obs.Metrics.dump_counters ())))

let test_metrics_disabled_is_noop () =
  with_clean_sinks (fun () ->
      let c = Obs.Metrics.counter "test.disabled" in
      Obs.Metrics.add c 5;
      Obs.Metrics.incr c;
      Alcotest.(check int) "disabled counter stays zero" 0 (Obs.Metrics.value c))

(* Disabled-sink hot-path contract: with_span and counter bumps must not
   allocate when tracing/metrics are off.  The thunk is pre-allocated so the
   loop itself is the only thing measured; the bound leaves slack for GC
   bookkeeping noise but catches any per-event allocation (10k events at
   even one word each would be ~80kB). *)
let test_disabled_sink_no_allocation () =
  with_clean_sinks (fun () ->
      let c = Obs.Metrics.counter "test.alloc" in
      let thunk () = Obs.Metrics.incr c in
      (* Warm up so any one-time allocation is out of the measured window. *)
      Obs.Trace.with_span "warmup" thunk;
      let iters = 10_000 in
      let before = Gc.allocated_bytes () in
      for _ = 1 to iters do
        Obs.Trace.with_span "hot" thunk
      done;
      let delta = Gc.allocated_bytes () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "allocation delta %.0fB under 1kB" delta)
        true (delta < 1024.0))

(* --- Report --------------------------------------------------------------- *)

let golden_report () =
  Obs.Report.make ~generated_at:0.0
    ~meta:[ ("outcome", Obs.Json.String "proved"); ("level", Obs.Json.Float 0.125) ]
    ~stages:
      [
        Obs.Report.stage ~name:"simulation" ~seconds:0.25 ();
        Obs.Report.stage ~calls:3 ~name:"lp" ~seconds:0.5 ();
        Obs.Report.stage ~calls:2 ~name:"condition5" ~seconds:1.5 ();
      ]
    ~total_seconds:2.5
    ~counters:[ ("lp.pivots", 141); ("solver.branches", 325) ]
    ()

let test_report_validate () =
  let report = golden_report () in
  (match Obs.Report.validate report with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid report rejected: %s" msg);
  (* 2.25s of stages against 2.5s total = 90% coverage. *)
  (match Obs.Report.validate ~min_stage_coverage:0.8 report with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "coverage 0.8 rejected: %s" msg);
  (match Obs.Report.validate ~min_stage_coverage:0.95 report with
  | Ok () -> Alcotest.fail "coverage 0.95 should fail at 90%"
  | Error _ -> ());
  let expect_error label doc =
    match Obs.Report.validate doc with
    | Ok () -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  expect_error "non-object" (Obs.Json.Int 1);
  expect_error "wrong schema"
    (Obs.Json.Obj [ ("schema", Obs.Json.String "other"); ("schema_version", Obs.Json.Int 1) ]);
  expect_error "future version"
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String Obs.Report.schema_name);
         ("schema_version", Obs.Json.Int 999);
       ]);
  expect_error "negative stage seconds"
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String Obs.Report.schema_name);
         ("schema_version", Obs.Json.Int Obs.Report.schema_version);
         ("generated_at_unix", Obs.Json.Float 0.0);
         ("meta", Obs.Json.Obj []);
         ("total_seconds", Obs.Json.Float 1.0);
         ( "stages",
           Obs.Json.List
             [
               Obs.Json.Obj
                 [ ("name", Obs.Json.String "bad"); ("seconds", Obs.Json.Float (-1.0)) ];
             ] );
       ])

let test_report_roundtrip_through_printer () =
  let report = golden_report () in
  match Obs.Json.of_string (Obs.Json.to_string report) with
  | Error msg -> Alcotest.failf "printed report does not parse: %s" msg
  | Ok parsed ->
    (match Obs.Report.validate ~min_stage_coverage:0.8 parsed with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "parsed report rejected: %s" msg)

(* Snapshot of the printer output: any change to the report schema or the
   JSON renderer must be a conscious golden-file update. *)
let test_report_golden () =
  let path = Filename.concat "golden" "run_report.json" in
  let ic = open_in_bin path in
  let golden =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "run_report.json snapshot" golden
    (Obs.Json.to_string (golden_report ()))

(* --- Engines -------------------------------------------------------------- *)

(* Every engine runs through the shared CEGIS core and times its stages
   through [Cegis.timed], so its runs are traced alike: seed simulation, LP
   and condition spans, and one [cegis.cex_cuts] tick per reported
   counterexample.  Each stage's seconds bracket its spans (never less than
   their summed durations) and the stages cover the run's total.  The
   sparse-seed variants (rng seed 1 with two seeds) are known to need one
   counterexample, so the equality is checked on a non-zero count too. *)
let test_engine_spans_and_cuts () =
  let traced label ~min_cexs run =
    with_clean_sinks (fun () ->
        Obs.Trace.enable ();
        Obs.Metrics.enable ();
        let cexs, (st : Engine.stats) = run () in
        let spans = Obs.Trace.spans () in
        let names = List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name) spans in
        List.iter
          (fun n -> Alcotest.(check bool) (label ^ ": " ^ n ^ " span") true (List.mem n names))
          [ "seed_simulation"; "synthesis.lp"; "condition5" ];
        let spanned stage_spans =
          List.fold_left
            (fun acc (s : Obs.Trace.span) ->
              if List.mem s.Obs.Trace.name stage_spans then acc +. Obs.Trace.duration s else acc)
            0.0 spans
        in
        List.iter
          (fun (stage, seconds, stage_spans) ->
            let inside = spanned stage_spans in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s %.6f s >= its spans' %.6f s" label stage seconds inside)
              true
              (seconds >= inside -. 1e-9))
          [
            ("simulation", st.Engine.sim_time, [ "seed_simulation"; "cex_simulation" ]);
            ("lp", st.Engine.lp_time, [ "synthesis.lp" ]);
            ("condition5", st.Engine.smt5_time, [ "condition5" ]);
            ("condition6", st.Engine.smt6_time, [ "condition6" ]);
            ("condition7", st.Engine.smt7_time, [ "condition7" ]);
          ];
        Alcotest.(check bool) (label ^ ": smt67 = smt6 + smt7") true
          (Float.equal st.Engine.smt67_time (st.Engine.smt6_time +. st.Engine.smt7_time));
        let covered =
          st.Engine.sim_time +. st.Engine.lp_time +. st.Engine.smt5_time +. st.Engine.smt67_time
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: stages cover %.3f of %.6f s" label
             (covered /. st.Engine.total_time) st.Engine.total_time)
          true
          (covered >= 0.9 *. st.Engine.total_time);
        let cuts =
          Option.value ~default:0 (List.assoc_opt "cegis.cex_cuts" (Obs.Metrics.dump_counters ()))
        in
        Alcotest.(check int) (label ^ ": cegis.cex_cuts = counterexamples") cexs cuts;
        Alcotest.(check bool) (label ^ ": counterexamples exercised") true (cexs >= min_cexs))
  in
  let system =
    (Plant.close_exn Registry.dubins_error (Plant.Network Error_dynamics.reference_controller))
      .Plant.system
  in
  let continuous seed () =
    let r = Engine.verify ~rng:(Rng.create seed) system in
    (List.length r.Engine.counterexamples, r.Engine.stats)
  in
  let ff = Discrete.of_network ~dt:0.1 Error_dynamics.reference_controller in
  let discrete ?config seed () =
    let r = Discrete.verify ?config ~rng:(Rng.create seed) ff in
    (List.length r.Engine.counterexamples, r.Engine.stats)
  in
  let lyapunov ?config seed () =
    let r = Lyapunov.verify ?config ~rng:(Rng.create seed) system in
    (List.length r.Lyapunov.counterexamples, r.Lyapunov.stats)
  in
  traced "continuous" ~min_cexs:0 (continuous 7);
  traced "discrete" ~min_cexs:0 (discrete 5);
  traced "discrete, two seeds" ~min_cexs:1
    (discrete
       ~config:{ (Discrete.default_config ~dim:2) with Discrete.n_seed = 2; n_probes = 0 }
       1);
  traced "lyapunov" ~min_cexs:0 (lyapunov 9);
  traced "lyapunov, two seeds" ~min_cexs:1
    (lyapunov ~config:{ Lyapunov.default_config with Lyapunov.n_seed = 2 } 1)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed inputs" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting under pool jobs=4" `Quick test_trace_nesting_under_pool;
          Alcotest.test_case "closes on raise" `Quick test_trace_records_exceptions;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "exact merge across workers" `Quick test_counter_merge_exact;
          Alcotest.test_case "disabled is a no-op" `Quick test_metrics_disabled_is_noop;
          Alcotest.test_case "disabled sink does not allocate" `Quick
            test_disabled_sink_no_allocation;
        ] );
      ( "report",
        [
          Alcotest.test_case "validate" `Quick test_report_validate;
          Alcotest.test_case "printer round-trip" `Quick test_report_roundtrip_through_printer;
          Alcotest.test_case "golden snapshot" `Quick test_report_golden;
        ] );
      ( "engines",
        [ Alcotest.test_case "discrete and lyapunov spans" `Quick test_engine_spans_and_cuts ] );
    ]
