(* Certificate-store benchmark: cold CEGIS versus a cache-hit audit versus
   a warm-started run, on the Dubins case study at Nh ∈ {10, 100}, emitting
   machine-readable BENCH_cert.json.

   Reported per width:
   - cold: full verify (seed sim + LP + δ-SAT refinement), store empty;
   - hit: exact-fingerprint cache hit — one independent audit of the stored
     artifact, no synthesis at all;
   - warm: same config, different controller, seeded from the stored
     coefficient vector (LP skipped when the candidate is accepted).

   The headline number is hit_speedup = cold / hit; the subsystem's
   acceptance bar is ≥ 5x.

   Usage: bench_cert [--smoke] [--widths 10,100] [--out FILE]

   --smoke restricts to Nh=10 — the CI mode. *)

let parse_args () =
  let smoke = ref false
  and widths = ref [ 10; 100 ]
  and out = ref "BENCH_cert.json" in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      widths := [ 10 ];
      go rest
    | "--widths" :: spec :: rest ->
      widths := List.map int_of_string (String.split_on_char ',' spec);
      go rest
    | "--out" :: path :: rest ->
      out := path;
      go rest
    | arg :: _ ->
      Format.eprintf "bench_cert: unknown argument %s@." arg;
      exit 1
  in
  go (List.tl (Array.to_list Sys.argv));
  (!smoke, !widths, !out)

let fresh_store =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sb_bench_cert_%d_%d" (Unix.getpid ()) !counter)

type row = {
  nh : int;
  cold_wall_s : float;
  cold_lp_calls : int;
  hit_wall_s : float;
  hit_audit_branches : int;
  warm_wall_s : float;
  warm_lp_calls : int;
}

let source_name = function
  | Cache.Cold -> "cold"
  | Cache.Cache_hit _ -> "hit"
  | Cache.Warm_started _ -> "warm"

let run ~label ~expect ?network ~store ~rng system =
  let result, wall = Timing.time (fun () -> Cache.verify ?network ~store ~rng system) in
  (match result.Cache.report.Engine.outcome with
  | Engine.Proved _ -> ()
  | Engine.Failed _ ->
    Format.eprintf "bench_cert: %s run failed to prove@." label;
    exit 1);
  let got = source_name result.Cache.source in
  if got <> expect then begin
    Format.eprintf "bench_cert: %s run took the %s path@." expect got;
    exit 1
  end;
  (result, wall)

let bench_width nh =
  let net = Error_dynamics.controller_of_width nh in
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let store = fresh_store () in
  (* Cold: empty store, full CEGIS, artifact exported. *)
  let cold, cold_wall_s =
    run ~label:"cold" ~expect:"cold" ~network:net ~store ~rng:(Rng.create 7) system
  in
  (* Hit: same problem again — one audit, zero synthesis. *)
  let hit, hit_wall_s =
    run ~label:"hit" ~expect:"hit" ~network:net ~store ~rng:(Rng.create 8) system
  in
  let hit_audit_branches =
    match hit.Cache.source with
    | Cache.Cache_hit { audit; _ } -> audit.Checker.branches
    | _ -> 0
  in
  (* Warm: a different controller of the same width class under the same
     config finds the stored entry as a nearby donor. *)
  let other = Error_dynamics.controller_of_width ~rng_seed:42 nh in
  let warm, warm_wall_s =
    run ~label:"warm" ~expect:"warm" ~network:other ~store ~rng:(Rng.create 7)
      ((Plant.close_exn Registry.dubins_error (Plant.Network other)).Plant.system)
  in
  let row =
    {
      nh;
      cold_wall_s;
      cold_lp_calls = cold.Cache.report.Engine.stats.Engine.lp_calls;
      hit_wall_s;
      hit_audit_branches;
      warm_wall_s;
      warm_lp_calls = warm.Cache.report.Engine.stats.Engine.lp_calls;
    }
  in
  Format.printf
    "Nh=%-5d cold %.3fs (%d LP)  hit %.3fs (%.1fx)  warm %.3fs (%d LP, %.1fx)@." nh cold_wall_s
    row.cold_lp_calls hit_wall_s
    (cold_wall_s /. hit_wall_s)
    warm_wall_s row.warm_lp_calls
    (cold_wall_s /. warm_wall_s);
  row

let () =
  let smoke, widths, out = parse_args () in
  let rows = List.map bench_width widths in
  (* Sanity: the acceptance bar for the subsystem — an exact cache hit must
     be at least 5x cheaper than the cold run it replaces. *)
  List.iter
    (fun r ->
      if r.cold_wall_s < 5.0 *. r.hit_wall_s then begin
        Format.eprintf "bench_cert: cache hit only %.2fx faster than cold at Nh=%d@."
          (r.cold_wall_s /. r.hit_wall_s)
          r.nh;
        exit 1
      end)
    rows;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"cert_store\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf "  \"widths\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"nh\": %d, \"cold_wall_s\": %.6f, \"cold_lp_calls\": %d, \
            \"hit_wall_s\": %.6f, \"hit_speedup\": %.3f, \"hit_audit_branches\": %d, \
            \"warm_wall_s\": %.6f, \"warm_speedup\": %.3f, \"warm_lp_calls\": %d}%s\n"
           r.nh r.cold_wall_s r.cold_lp_calls r.hit_wall_s
           (r.cold_wall_s /. r.hit_wall_s)
           r.hit_audit_branches r.warm_wall_s
           (r.cold_wall_s /. r.warm_wall_s)
           r.warm_lp_calls
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Format.printf "wrote %s@." out
