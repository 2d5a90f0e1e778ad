(* serve-recheck: the serve daemon in-process on its real Unix socket with 2
   worker domains, over a store primed with certificates for a fixed
   problem set spanning several plants and Dubins widths.  One client
   connection keeps 2 requests in flight.

   Of every block of requests, 80 % re-verify a stored problem (a cache
   hit: the store read, the binding and an audit) and 20 % are [no_cache]
   re-proofs that export over their own entry (writes beside the reads,
   keeping the store size fixed).  Each block holds every problem the same
   number of times; the workload seed only orders the requests. *)

open Common

type problem = { plant : string; width : int }

let problems =
  [
    { plant = "dubins_error"; width = 10 };
    { plant = "dubins_error"; width = 100 };
    { plant = "dubins_error"; width = 300 };
    { plant = "duffing"; width = 2 };
    { plant = "poly_2d"; width = 1 };
    { plant = "poly_3d"; width = 1 };
  ]
  |> Array.of_list

let reads_per_write = 4

(* The engine seed of every request; each problem proves under it. *)
let request_seed = 7

let inflight = 2

let blocks = 40

type kind = Read | Write

type req = { problem : int; kind : kind }

let kind_name = function Read -> "read" | Write -> "write"

(* One block: every problem read [reads_per_write] times and written once,
   shuffled. *)
let block rng =
  let reqs =
    Array.concat
      (List.init (Array.length problems) (fun problem ->
           Array.append
             (Array.make reads_per_write { problem; kind = Read })
             [| { problem; kind = Write } |]))
  in
  Rng.shuffle rng reqs;
  reqs

let block_len = Array.length problems * (reads_per_write + 1)

let stream seed =
  let rng = Rng.create seed in
  Array.concat (List.init blocks (fun _ -> block rng))

let line ~id ~no_cache p =
  Protocol.verify_line ~id ~plant:p.plant ~width:p.width ~seed:request_seed ~no_cache ()

(* --- client ------------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go (tries - 1)
  in
  go 500

type answer = {
  req : req;
  rtt : float;  (** client send to response line *)
  seconds : float;  (** the handler's own time for the request *)
  ok : bool;  (** status, source and export as expected *)
}

let str k j = match Obs.Json.member k j with Some (Obs.Json.String s) -> Some s | _ -> None

(* Reads must be audited store hits; writes (and priming) fresh exported
   proofs. *)
let check req j =
  let status = str "status" j and source = str "source" j in
  match req.kind with
  | Read -> status = Some "ok" && source = Some "cache_hit"
  | Write -> status = Some "ok" && source = Some "cold" && str "exported" j <> None

(* Closed loop on one connection: keep [inflight] requests outstanding,
   sending request [i] while [more i]; returns the answers in completion
   order. *)
let drive conn ~more (req_of : int -> req) =
  let pending = Hashtbl.create 8 in
  let answers = ref [] and sent = ref 0 in
  let rec fill () =
    if Hashtbl.length pending < inflight && more !sent then begin
      let req = req_of !sent in
      let id = string_of_int !sent in
      output_string conn.oc
        (line ~id ~no_cache:(req.kind = Write) problems.(req.problem));
      output_char conn.oc '\n';
      flush conn.oc;
      Hashtbl.replace pending id (req, Timing.now ());
      incr sent;
      fill ()
    end
  in
  fill ();
  while Hashtbl.length pending > 0 do
    let raw = input_line conn.ic in
    let t = Timing.now () in
    let j = match Obs.Json.of_string raw with Ok j -> j | Error e -> failwith e in
    let id = Option.get (str "id" j) in
    let req, t0 = Hashtbl.find pending id in
    Hashtbl.remove pending id;
    let seconds =
      Option.value ~default:0.0 (Option.bind (Obs.Json.member "seconds" j) Obs.Json.number)
    in
    let ok = check req j in
    if not ok then log "request %s (%s) answered %s" id problems.(req.problem).plant raw;
    answers := { req; rtt = t -. t0; seconds; ok } :: !answers;
    fill ()
  done;
  List.rev !answers

let ping conn =
  let (), rtt =
    Timing.time (fun () ->
        output_string conn.oc (Protocol.ping_line ~id:"ping");
        output_char conn.oc '\n';
        flush conn.oc;
        ignore (input_line conn.ic))
  in
  rtt

(* --- daemon --------------------------------------------------------------- *)

type daemon = {
  dir : string;
  store : string;
  ctrl : Daemon.control;
  domain : Daemon.stats Domain.t;
  conn : conn;
}

(* Start the daemon the way [safebarrier serve --store] does: fsck the
   store, then serve; ready once a ping round-trips. *)
let start () =
  let dir = fresh_dir "serve" in
  let store = Filename.concat dir "store" in
  Unix.mkdir store 0o755;
  let fsck = Store.fsck ~quarantine:true ~root:store () in
  if fsck.Store.findings <> [] then failwith "fresh store has fsck findings";
  let socket = Filename.concat dir "s.sock" in
  let cfg = { (Daemon.default_config ~socket_path:socket) with Daemon.workers = 2 } in
  let ctrl = Daemon.control () in
  let domain =
    Domain.spawn (fun () -> Daemon.run ~control:ctrl ~handler:(Serve_handler.make ~store ()) cfg)
  in
  let conn = connect socket in
  ignore (ping conn);
  { dir; store; ctrl; domain; conn }

let stop d =
  Unix.close d.conn.fd;
  Daemon.request_drain d.ctrl;
  let stats = Domain.join d.domain in
  rm_rf d.dir;
  stats

(* --- set-up --------------------------------------------------------------- *)

type state = { daemon : daemon; reqs : req array; prime_ok : bool; warm_ok : bool }

let setup ~seed () =
  let reqs, inputs_s = Timing.time (fun () -> stream seed) in
  let daemon, start_s = Timing.time start in
  (* Priming: one cold proof per problem, exported into the store. *)
  let primed, prime_s =
    Timing.time (fun () ->
        drive daemon.conn
          ~more:(fun i -> i < Array.length problems)
          (fun i -> { problem = i; kind = Write }))
  in
  (* Warm-up: one read of every problem, so the handler's lazy state and
     each entry's first audit settle in set-up. *)
  let warm, warmup_s =
    Timing.time (fun () ->
        drive daemon.conn
          ~more:(fun i -> i < Array.length problems)
          (fun i -> { problem = i; kind = Read }))
  in
  let all_ok = List.for_all (fun a -> a.ok) in
  ( { daemon; reqs; prime_ok = all_ok primed; warm_ok = all_ok warm },
    [
      ("setup.inputs_s", inputs_s);
      ("setup.daemon_start_s", start_s);
      ("setup.prime_s", prime_s);
      ("setup.warmup_s", warmup_s);
    ] )

(* --- timed phase ---------------------------------------------------------- *)

(* The requests of one timed phase, gathered over the rounds of a run. *)
type phase = { clock : clock; mutable answers : answer list }

let phase seconds = { clock = clock seconds; answers = [] }

(* Round [round]'s share of phase [p]: whole blocks of the request stream,
   continuing where the previous round stopped, on this round's daemon. *)
let run_round p ~round st =
  let target = target p.clock ~round and used = p.clock.used and first = p.clock.next in
  if used < target then begin
    let t0 = Timing.now () in
    let answers =
      drive st.daemon.conn
        ~more:(fun i -> i mod block_len <> 0 || used +. (Timing.now () -. t0) < target)
        (fun i -> st.reqs.((first + i) mod Array.length st.reqs))
    in
    p.clock.used <- used +. (Timing.now () -. t0);
    p.clock.next <- first + List.length answers;
    p.answers <- List.rev_append answers p.answers
  end

let failures answers = List.length (List.filter (fun a -> not a.ok) answers)

let throughput p = float_of_int (List.length p.answers) /. p.clock.used

(* --- per-layer probes of the traced run ----------------------------------- *)

(* The problem as the handler resolves it for a [plant]/[width] request. *)
let resolve p =
  let plant = Option.get (Registry.find_plant p.plant) in
  let controller =
    match plant.Plant.default_controller with
    | Plant.Network net when Nn.hidden_widths net = [ p.width ] -> plant.Plant.default_controller
    | _ -> (
      match Plant.widened_default plant p.width with
      | Ok net -> Plant.Network net
      | Error e -> failwith e)
  in
  (Plant.close_exn plant controller, Plant.default_engine_config plant)

(* Store read, checksum, parse, fingerprint and binding of a hit: the
   in-process [Cache.verify] wall time minus its audit. *)
let lookup_s ~store p =
  let closed, config = resolve p in
  let result, wall =
    Timing.time (fun () ->
        Cache.verify ~config ?network:closed.Plant.network ~plant:closed.Plant.id ~store
          ~rng:(Rng.create request_seed) closed.Plant.system)
  in
  match result.Cache.source with
  | Cache.Cache_hit { audit; _ } -> Some (wall -. audit.Checker.total_time)
  | Cache.Cold | Cache.Warm_started _ -> None

(* One certificate export, timed on its own. *)
let export_s ~store p =
  let closed, config = resolve p in
  let fp =
    Artifact.fingerprint ?network:closed.Plant.network ~plant:closed.Plant.id closed.Plant.system
      config
  in
  match Store.load ~root:store fp.Artifact.combined with
  | Error _ -> None
  | Ok e ->
    Some
      (snd
         (Timing.time (fun () ->
              Store.save ~root:store ?network:e.Store.network e.Store.artifact)))

(* --- the run --------------------------------------------------------------- *)

let setup_errors st =
  (if st.prime_ok then [] else [ "priming request failed" ])
  @ if st.warm_ok then [] else [ "warm-up request failed" ]

(* What a traced round measures besides its phases: the bare round trip,
   the direct store probes of every problem, and the daemon's stats. *)
type probes = {
  ping_s : float;
  lookups : float option array;
  exports : float option array;
  stats : Daemon.stats;
}

let run args =
  if args.dump_ops then begin
    Array.iteri
      (fun i r ->
        Format.printf "%d: %s/%d %s@." i problems.(r.problem).plant problems.(r.problem).width
          (kind_name r.kind))
      (stream args.seed);
    exit 0
  end;
  let share = if args.trace then args.seconds /. 2.0 else args.seconds in
  let plain = phase share and p = phase share in
  let before = snapshot () in
  let setup_s, parts, rounds_ =
    rounds ~setup:(setup ~seed:args.seed) ~round:(fun round st ->
        run_round plain ~round st;
        let probes =
          if not args.trace then begin
            ignore (stop st.daemon);
            None
          end
          else begin
            settle ();
            (* framing, socket and listener cost of one round trip with no
               handler *)
            let ping_s = median (List.init 20 (fun _ -> ping st.daemon.conn)) in
            Obs.Metrics.enable ();
            run_round p ~round st;
            Obs.Metrics.disable ();
            (* Untimed: split a hit into lookup and audit, and time an
               export, per problem, with the benchmark's own calls into
               [Cache] and [Store]. *)
            let store = st.daemon.store in
            let lookups = Array.map (lookup_s ~store) problems in
            let exports = Array.map (export_s ~store) problems in
            Some { ping_s; lookups; exports; stats = stop st.daemon }
          end
        in
        (setup_errors st, probes))
  in
  let errors = List.concat_map fst rounds_ in
  if not args.trace then
    {
      attempted = List.length plain.answers;
      failed = failures plain.answers;
      invariant_errors = errors;
      metrics =
        end_to_end ~setup_s ~elapsed:plain.clock.used ~failed:(failures plain.answers)
          (List.map (fun a -> a.rtt) plain.answers);
    }
  else begin
    let counts = delta ~before ~after:(snapshot ()) in
    let probes = List.filter_map snd rounds_ in
    let all f = Array.concat (List.map f probes) in
    let probe_errors =
      if Array.exists Option.is_none (all (fun r -> r.lookups))
         || Array.exists Option.is_none (all (fun r -> r.exports))
      then [ "direct store probe missed" ]
      else []
    in
    let per_problem f =
      Array.init (Array.length problems) (fun i ->
          median (List.filter_map (fun r -> (f r).(i)) probes))
    in
    let lookups = per_problem (fun r -> r.lookups) and exports = per_problem (fun r -> r.exports) in
    let ping_s = median (List.map (fun r -> r.ping_s) probes) in
    let answers = p.answers in
    let reads = List.filter (fun a -> a.req.kind = Read) answers in
    let hits = List.filter (fun a -> a.ok) reads in
    (* An op's layer self-times: the handler's own seconds (audit or
       engine), the store work around it, and one bare round trip. *)
    let covered a =
      let store_s =
        match a.req.kind with Read -> lookups.(a.req.problem) | Write -> exports.(a.req.problem)
      in
      a.seconds +. store_s +. ping_s
    in
    let coverage a = covered a /. a.rtt in
    let lowest =
      List.fold_left
        (fun acc a -> if coverage a < coverage acc then a else acc)
        (List.hd answers) answers
    in
    log "lowest op stage coverage %.3f: %s/%d %s, handler %.6f s of %.6f s (ping %.6f s)"
      (coverage lowest) problems.(lowest.req.problem).plant problems.(lowest.req.problem).width
      (kind_name lowest.req.kind)
      lowest.seconds lowest.rtt ping_s;
    let stage_coverage =
      sum (List.map covered answers) /. sum (List.map (fun a -> a.rtt) answers)
    in
    let ops = List.length answers in
    let stats = List.map (fun r -> r.stats) probes in
    {
      attempted = ops + List.length plain.answers;
      failed = failures plain.answers + failures answers;
      invariant_errors = errors @ probe_errors @ coverage_errors stage_coverage;
      metrics =
        [
          m "cert.audit_s_per_hit" "s" (mean (List.map (fun a -> a.seconds) hits));
          m "cert.lookup_s_per_hit" "s" (mean (Array.to_list lookups));
          m "cert.export_s_per_write" "s" (mean (Array.to_list exports));
          m "cert.hit_ratio" "ratio"
            (ratio (float_of_int (List.length hits)) (float_of_int (List.length reads)));
          m "serve.overhead_s_p50" "s" (median (List.map (fun a -> a.rtt -. a.seconds) answers));
          m "serve.queue_high_water" "count"
            (float_of_int
               (List.fold_left (fun acc s -> max acc s.Daemon.queue_high_water) 0 stats));
          m "serve.shed" "count"
            (float_of_int (List.fold_left (fun acc s -> acc + s.Daemon.counts.Daemon.shed) 0 stats));
          m "trace.stage_coverage" "ratio" stage_coverage;
          m "trace.overhead_ratio" "ratio" (throughput p /. throughput plain);
        ]
        @ counter_metrics ~ops counts
        @ parts;
    }
  end
