(* Timing gates: three bounds the repository keeps on its own speed, all
   measured on the Dubins case study.

     stealing  condition (5) at jobs 1, 2 and 4 returns one verdict, and the
               jobs-4 stealing run takes at most 10 x the jobs-1 wall time
               + 0.25 s (a regression tripwire, not a speedup claim: CI
               runners expose 2-4 vCPUs and the smoke query is tiny)
     cert      cold and cache-hit runs prove on the expected path, and a
               hit is >= 5x faster than cold (Nh 10; full also Nh 100 and
               1000)
     serve     every daemon request is answered ok, the warm batch is all
               cache hits, and cold p50 >= 2 x warm p50 at workers 1 and 4

   [run ~smoke] runs every gate, prints one line per gate (measured value,
   bound, PASS/FAIL) and returns whether all passed.  [smoke] is the CI
   size: a tiny condition-(5) box, Nh 10, four serve requests. *)

(* A broken invariant inside a gate (a verdict or status mismatch, a
   request not answered ok) fails that gate with its message. *)
let failf fmt = Printf.ksprintf failwith fmt

let temp_path =
  let counter = ref 0 in
  fun kind ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sb_bench_%s_%d_%d" kind (Unix.getpid ()) !counter)

(* --- stealing ------------------------------------------------------------ *)

let verdict_string = function
  | Solver.Unsat -> "unsat"
  | Solver.Delta_sat _ -> "delta-sat"
  | Solver.Unknown -> "unknown"

(* The workload must be a refutation (unsat), where branch-and-prune has to
   exhaust the box; a sat query ends at its first witness.  Smoke mode uses
   fixed coefficients over a small box, unsat by construction there.  Full
   mode proves the pretrained Nh=10 controller, then moves γ to within 1e-2
   of the true margin max ∇W·f (grid-estimated outside X0): still unsat,
   but the thin margin forces the deep search that dominates Table 1. *)
let condition5_query ~smoke =
  let net =
    match (smoke, Bench_common.pretrained_controller ()) with
    | false, Some net -> net
    | _ -> Error_dynamics.reference_controller
  in
  let system = Bench_common.dubins_system net in
  let base = Engine.default_config in
  let config =
    if smoke then { base with Engine.safe_rect = [| (-1.2, 1.2); (-0.6, 0.6) |] } else base
  in
  let template = Template.make Template.Quadratic system.Engine.vars in
  let cert, gamma =
    if smoke then
      ({ Engine.template; coeffs = [| 1.0; 0.5; 2.0 |]; level = 0.0 }, config.Engine.gamma)
    else begin
      let cert =
        match (Engine.verify ~config ~rng:(Rng.create 7) system).Engine.outcome with
        | Engine.Proved cert -> cert
        | Engine.Failed reason -> failf "pipeline failed: %s" (Cegis.string_of_failure reason)
      in
      let max_lie = ref neg_infinity in
      let in_x0 x =
        Array.for_all Fun.id
          (Array.mapi (fun i (lo, hi) -> x.(i) >= lo && x.(i) <= hi) config.Engine.x0_rect)
      in
      let grid (lo, hi) = Floatx.linspace lo hi 161 in
      Array.iter
        (fun d ->
          Array.iter
            (fun t ->
              let x = [| d; t |] in
              if not (in_x0 x) then begin
                let f = system.Engine.numeric_field 0.0 x in
                let basis = Template.basis_lie cert.Engine.template x f in
                let lie = ref 0.0 in
                Array.iteri (fun k b -> lie := !lie +. (cert.Engine.coeffs.(k) *. b)) basis;
                if !lie > !max_lie then max_lie := !lie
              end)
            (grid config.Engine.safe_rect.(1)))
        (grid config.Engine.safe_rect.(0));
      (cert, -.(!max_lie +. 1e-2))
    end
  in
  let formula = Engine.condition5_formula system { config with Engine.gamma } cert in
  let bounds =
    Array.to_list
      (Array.mapi
         (fun i v -> (v, fst config.Engine.safe_rect.(i), snd config.Engine.safe_rect.(i)))
         system.Engine.vars)
  in
  (formula, bounds)

let stealing ~smoke =
  let formula, bounds = condition5_query ~smoke in
  let delta = if smoke then 1e-3 else 1e-5 in
  let repeats = if smoke then 1 else 3 in
  (* Best wall time of [repeats] solves at [jobs], with its verdict. *)
  let best jobs =
    let options = { Solver.default_options with Solver.delta; jobs } in
    List.init repeats (fun _ ->
        let (verdict, _), dt = Timing.time (fun () -> Solver.solve ~options ~bounds formula) in
        (dt, verdict_string verdict))
    |> List.sort compare |> List.hd
  in
  let runs = List.map (fun jobs -> (jobs, best jobs)) [ 1; 2; 4 ] in
  (match List.sort_uniq compare (List.map (fun (_, (_, v)) -> v) runs) with
  | [ _ ] -> ()
  | verdicts -> failf "verdicts differ across jobs 1/2/4: %s" (String.concat ", " verdicts));
  let t1, verdict = List.assoc 1 runs and t4, _ = List.assoc 4 runs in
  ( Printf.sprintf "jobs 4 %.4f s vs jobs 1 %.4f s (jobs 2 %.4f s), all %s" t4 t1
      (fst (List.assoc 2 runs))
      verdict,
    t4 <= (10.0 *. t1) +. 0.25 )

(* --- cert ---------------------------------------------------------------- *)

let cert ~smoke =
  let ratio nh =
    let net = Error_dynamics.controller_of_width nh in
    let system = Bench_common.dubins_system net in
    let store = temp_path "cert" in
    let timed_run ~expect seed =
      let result, wall =
        Timing.time (fun () -> Cache.verify ~network:net ~store ~rng:(Rng.create seed) system)
      in
      (match result.Cache.report.Engine.outcome with
      | Engine.Proved _ -> ()
      | Engine.Failed reason ->
        failf "Nh=%d %s run failed: %s" nh expect (Cegis.string_of_failure reason));
      let path =
        match result.Cache.source with
        | Cache.Cold -> "cold"
        | Cache.Cache_hit _ -> "hit"
        | Cache.Warm_started _ -> "warm"
      in
      if path <> expect then failf "Nh=%d %s run took the %s path" nh expect path;
      wall
    in
    let cold = timed_run ~expect:"cold" 7 in
    let hit = timed_run ~expect:"hit" 8 in
    (nh, cold /. hit)
  in
  let ratios = List.map ratio (if smoke then [ 10 ] else [ 10; 100; 1000 ]) in
  ( String.concat ", "
      (List.map (fun (nh, r) -> Printf.sprintf "hit %.2fx faster than cold at Nh=%d" r nh) ratios),
    List.for_all (fun (_, r) -> r >= 5.0) ratios )

(* --- serve --------------------------------------------------------------- *)

let connect path =
  let rec go tries =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go (tries - 1)
  in
  go 250

(* Send [requests] pipelined width-2 verify requests; each must be "ok". *)
let drive ~socket ~no_cache ~requests =
  let fd = connect socket in
  let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
  for i = 1 to requests do
    output_string oc
      (Protocol.verify_line ~id:(Printf.sprintf "b%d" i) ~width:2 ~seed:7 ~no_cache ());
    output_char oc '\n'
  done;
  flush oc;
  for _ = 1 to requests do
    let line = input_line ic in
    match Result.map Protocol.response_status (Obs.Json.of_string line) with
    | Ok (Some "ok") -> ()
    | _ -> failf "request not answered ok: %s" line
  done;
  Unix.close fd

(* p50 latency of one batch against an in-process daemon over its socket.
   [warm]: one priming request exports the certificate first, so the batch
   is all cache hits (checked); cold: every request runs the engine. *)
let serve_p50 ~workers ~warm ~requests =
  let store = temp_path "serve_store" and socket = temp_path "serve_sock" ^ ".sock" in
  (try Unix.mkdir store 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let cfg =
    { (Daemon.default_config ~socket_path:socket) with Daemon.workers; queue_capacity = 256 }
  in
  let ctrl = Daemon.control () in
  let daemon =
    Domain.spawn (fun () -> Daemon.run ~control:ctrl ~handler:(Serve_handler.make ~store ()) cfg)
  in
  Fun.protect
    ~finally:(fun () -> Daemon.request_drain ctrl)
    (fun () ->
      if warm then drive ~socket ~no_cache:false ~requests:1;
      drive ~socket ~no_cache:(not warm) ~requests);
  let stats = Domain.join daemon in
  if warm && stats.Daemon.counts.Daemon.cache_hits < requests then
    failf "workers %d: warm batch had %d/%d cache hits" workers
      stats.Daemon.counts.Daemon.cache_hits requests;
  (* The priming request's latency would pollute the warm percentile. *)
  let latencies = List.sort compare stats.Daemon.latencies in
  let latencies = if warm then List.filteri (fun i _ -> i < requests) latencies else latencies in
  Obs.Report.percentile 0.50 latencies

let serve ~smoke =
  let requests = if smoke then 4 else 16 in
  let ratios =
    List.map
      (fun workers ->
        let cold = serve_p50 ~workers ~warm:false ~requests in
        let warm = serve_p50 ~workers ~warm:true ~requests in
        (workers, cold /. warm))
      [ 1; 4 ]
  in
  ( String.concat ", "
      (List.map (fun (w, r) -> Printf.sprintf "cold p50 %.1fx warm p50 at workers %d" r w) ratios),
    List.for_all (fun (_, r) -> r >= 2.0) ratios )

(* --- runner -------------------------------------------------------------- *)

let run ~smoke =
  let gates =
    [
      ("stealing", "jobs 4 <= 10 x jobs 1 + 0.25 s, one verdict", stealing);
      ("cert", "hit >= 5x faster than cold", cert);
      ("serve", "cold p50 >= 2x warm p50, warm all hits, every request ok", serve);
    ]
  in
  List.fold_left
    (fun all_pass (name, bound, gate) ->
      let measured, pass =
        match gate ~smoke with
        | result -> result
        | exception Failure msg -> (msg, false)
        | exception e -> (Printexc.to_string e, false)
      in
      Format.printf "%-8s %s  %s  (bound: %s)@." name (if pass then "PASS" else "FAIL") measured
        bound;
      all_pass && pass)
    true gates
