(* Benchmark driver: one workload, one run, one JSON result line.

   Usage: sbbench --workload NAME --seed N --seconds S --trace 0|1 [--dump-ops]

   Workloads: dubins-cold, scenario-suite, serve-recheck (see README.md in
   this directory).  With --trace 0 the result carries the end-to-end
   metrics; with --trace 1 the per-layer metrics of a separate traced
   phase, only those of the layers the workload touches.  --dump-ops prints the op list the seed generates and exits.
   The last line of standard output is the result; diagnostics go to
   standard error.  Exit code 1 when any op's output was wrong or a
   benchmark invariant broke. *)

open Common

let usage () =
  prerr_endline
    "usage: sbbench --workload dubins-cold|scenario-suite|serve-recheck --seed N --seconds S \
     --trace 0|1 [--dump-ops]";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> go { acc with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { acc with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | "--dump-ops" :: rest -> go { acc with dump_ops = true } rest
    | _ -> usage ()
  in
  let args =
    try
      go
        { workload = ""; seed = 0; seconds = 10.0; trace = false; dump_ops = false }
        (List.tl (Array.to_list Sys.argv))
    with Failure _ -> usage ()
  in
  if args.seconds <= 0.0 then usage ();
  args

let print_result r =
  let correct = r.failed = 0 && r.invariant_errors = [] in
  List.iter (fun e -> log "invariant broken: %s" e) r.invariant_errors;
  let metric x = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_ in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics));
  correct

let () =
  let args = parse_args () in
  let run =
    match args.workload with
    | "dubins-cold" -> Dubins_cold.run
    | "scenario-suite" -> Scenario_suite.run
    | "serve-recheck" -> Serve_recheck.run
    | _ -> usage ()
  in
  let r = run args in
  (try Unix.rmdir tmp_root with Unix.Unix_error _ -> ());
  if not (print_result r) then exit 1
