(* Tests for the serve daemon: bounded-queue semantics, wire-protocol
   parsing, and — the point of the subsystem — live fault-injection
   against a running daemon: malformed/oversized/chopped lines, crashing
   handlers, blown deadlines, backpressure shedding, and graceful drain,
   all without a single daemon exit.  The daemon runs in a domain inside
   the test process; handlers are deterministic stubs except for one
   end-to-end test against the real cache-fronted handler. *)

(* --- helpers ----------------------------------------------------------- *)

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sbsrv%d-%d.sock" (Unix.getpid ()) !sock_counter)

let tmpdir_counter = ref 0

let fresh_dir () =
  incr tmpdir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sbsrvstore%d-%d" (Unix.getpid ()) !tmpdir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  d

(* Run [f socket control] against a live daemon; always drain and join so
   no domain outlives its test.  Returns [f]'s result, the daemon stats,
   and the config (for serve_report). *)
let with_daemon ?(workers = 2) ?(queue_capacity = 64) ?max_line_bytes ?default_timeout
    ?deadline ?(drain_grace = 5.0) handler f =
  let socket_path = fresh_socket () in
  let base = Daemon.default_config ~socket_path in
  let cfg =
    {
      base with
      Daemon.workers;
      queue_capacity;
      max_line_bytes = Option.value ~default:base.Daemon.max_line_bytes max_line_bytes;
      default_timeout;
      deadline;
      drain_grace;
    }
  in
  let ctrl = Daemon.control () in
  let daemon = Domain.spawn (fun () -> Daemon.run ~control:ctrl ~handler cfg) in
  let ready_by = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < ready_by do
    Unix.sleepf 0.01
  done;
  match f socket_path ctrl with
  | result ->
    Daemon.request_drain ctrl;
    let stats = Domain.join daemon in
    (result, stats, cfg)
  | exception e ->
    Daemon.request_drain ctrl;
    (try ignore (Domain.join daemon) with _ -> ());
    raise e

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

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
  let fd = go 250 in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let send_raw c s =
  output_string c.oc s;
  flush c.oc

let recv c =
  let line = input_line c.ic in
  match Obs.Json.of_string line with
  | Ok json -> json
  | Error e -> Alcotest.failf "daemon wrote a non-JSON line %S: %s" line e

let recv_n c n = List.init n (fun _ -> recv c)

let disconnect c = Unix.close c.fd

let status json =
  match Protocol.response_status json with
  | Some s -> s
  | None -> Alcotest.failf "response without status: %s" (Obs.Json.to_string json)

let rid json = Protocol.response_id json

let sorted_statuses responses = List.sort compare (List.map status responses)

let check_ids what expected responses =
  let got = List.filter_map rid responses |> List.sort compare in
  Alcotest.(check (list string)) what (List.sort compare expected) got

let ok_handler ~budget:_ _ = ("ok", [])

(* Wait until the handler itself reports [n] requests started. *)
let await_started started n =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get started < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "handler started" n (Atomic.get started)

(* --- Bqueue ------------------------------------------------------------ *)

let test_bqueue_bounded_fifo () =
  let q = Bqueue.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Bqueue.capacity q);
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "push 3" true (Bqueue.try_push q 3);
  Alcotest.(check bool) "push into full queue refused" false (Bqueue.try_push q 4);
  Alcotest.(check int) "depth" 3 (Bqueue.depth q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check bool) "room again" true (Bqueue.try_push q 5);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 5" (Some 5) (Bqueue.pop q);
  Alcotest.(check int) "high water" 3 (Bqueue.high_water q)

let test_bqueue_close_drains () =
  let q = Bqueue.create ~capacity:4 in
  ignore (Bqueue.try_push q "a");
  ignore (Bqueue.try_push q "b");
  Bqueue.close q;
  Bqueue.close q (* idempotent *);
  Alcotest.(check bool) "push after close refused" false (Bqueue.try_push q "c");
  Alcotest.(check (option string)) "accepted item drains" (Some "a") (Bqueue.pop q);
  Alcotest.(check (option string)) "second item drains" (Some "b") (Bqueue.pop q);
  Alcotest.(check (option string)) "then None" None (Bqueue.pop q);
  Alcotest.(check (option string)) "None stays None" None (Bqueue.pop q)

let test_bqueue_bad_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Bqueue.create: capacity must be positive")
    (fun () -> ignore (Bqueue.create ~capacity:0))

let test_bqueue_concurrent () =
  let q = Bqueue.create ~capacity:16 in
  let producers = 4 and per_producer = 50 in
  let prods =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              let item = (p * per_producer) + i in
              while not (Bqueue.try_push q item) do
                Domain.cpu_relax ()
              done
            done))
  in
  let popped = Atomic.make [] in
  let consumers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Bqueue.pop q with None -> acc | Some x -> loop (x :: acc)
            in
            let mine = loop [] in
            let rec publish () =
              let cur = Atomic.get popped in
              if not (Atomic.compare_and_set popped cur (mine @ cur)) then publish ()
            in
            publish ()))
  in
  List.iter Domain.join prods;
  Bqueue.close q;
  List.iter Domain.join consumers;
  let all = List.sort compare (Atomic.get popped) in
  Alcotest.(check (list int))
    "every accepted item popped exactly once"
    (List.init (producers * per_producer) Fun.id)
    all;
  Alcotest.(check bool) "high water bounded by capacity" true (Bqueue.high_water q <= 16)

(* --- Protocol ---------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let line =
    Protocol.verify_line ~id:"r1" ~network_path:"net.nn" ~width:4 ~seed:11 ~gamma:1e-5
      ~timeout:2.5 ~lie:true ~linear_terms:true ~no_cache:true ()
  in
  match Protocol.parse_line line with
  | Ok { Protocol.id = "r1"; op = Protocol.Verify p } ->
    Alcotest.(check (option string)) "network" (Some "net.nn") p.Protocol.network_path;
    Alcotest.(check (option int)) "width" (Some 4) p.Protocol.width;
    Alcotest.(check int) "seed" 11 p.Protocol.seed;
    Alcotest.(check (option (float 0.0))) "gamma" (Some 1e-5) p.Protocol.gamma;
    Alcotest.(check (option (float 0.0))) "timeout" (Some 2.5) p.Protocol.timeout;
    Alcotest.(check bool) "lie" true p.Protocol.lie;
    Alcotest.(check bool) "linear_terms" true p.Protocol.linear_terms;
    Alcotest.(check bool) "no_cache" true p.Protocol.no_cache
  | Ok _ -> Alcotest.fail "wrong request shape"
  | Error e -> Alcotest.fail (Protocol.string_of_parse_error e)

let test_protocol_defaults_and_ping () =
  (match Protocol.parse_line {|{"id":"d"}|} with
  | Ok { Protocol.op = Protocol.Verify p; _ } ->
    Alcotest.(check (option int)) "no width: the problem's own controller" None
      p.Protocol.width;
    Alcotest.(check int) "default seed" 7 p.Protocol.seed;
    Alcotest.(check (option string)) "no network" None p.Protocol.network_path;
    Alcotest.(check bool) "no_cache off" false p.Protocol.no_cache
  | _ -> Alcotest.fail "bare id must default to verify");
  match Protocol.parse_line (Protocol.ping_line ~id:"p") with
  | Ok { Protocol.id = "p"; op = Protocol.Ping } -> ()
  | _ -> Alcotest.fail "ping round-trip"

let expect_error what line check =
  match Protocol.parse_line line with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" what
  | Error e -> check e

let test_protocol_rejects () =
  expect_error "missing id" {|{"op":"verify"}|} (function
    | Protocol.Bad_request { id = None; _ } -> ()
    | e -> Alcotest.fail (Protocol.string_of_parse_error e));
  expect_error "not json" (Faults.malformed_json_line ()) (function
    | Protocol.Not_json _ -> ()
    | e -> Alcotest.fail (Protocol.string_of_parse_error e));
  expect_error "not an object" {|[1,2]|} (function
    | Protocol.Bad_request { id = None; _ } -> ()
    | e -> Alcotest.fail (Protocol.string_of_parse_error e));
  expect_error "unknown op" {|{"id":"x","op":"launch"}|} (function
    | Protocol.Bad_request { id = Some "x"; _ } -> ()
    | e -> Alcotest.fail (Protocol.string_of_parse_error e));
  expect_error "wrong width type" {|{"id":"x","width":"ten"}|} (function
    | Protocol.Bad_request { id = Some "x"; _ } -> ()
    | e -> Alcotest.fail (Protocol.string_of_parse_error e));
  expect_error "non-positive timeout" {|{"id":"x","timeout":0}|} (function
    | Protocol.Bad_request { id = Some "x"; _ } -> ()
    | e -> Alcotest.fail (Protocol.string_of_parse_error e));
  let big = Faults.oversized_line ~target_bytes:512 in
  match Protocol.parse_line ~max_bytes:256 big with
  | Error (Protocol.Oversized n) ->
    Alcotest.(check bool) "reported length" true (n >= 512)
  | _ -> Alcotest.fail "oversized must be rejected before parsing"

let test_protocol_forward_compat () =
  match Protocol.parse_line {|{"id":"f","op":"verify","future_field":[1,2],"width":3}|} with
  | Ok { Protocol.op = Protocol.Verify p; _ } ->
    Alcotest.(check (option int)) "width still parsed" (Some 3) p.Protocol.width
  | _ -> Alcotest.fail "unknown fields must be ignored"

let test_protocol_response_accessors () =
  let line = Protocol.response_line ~id:(Some "r9") ~status:"shed" [] in
  let json = Result.get_ok (Obs.Json.of_string line) in
  Alcotest.(check (option string)) "id" (Some "r9") (Protocol.response_id json);
  Alcotest.(check (option string)) "status" (Some "shed") (Protocol.response_status json);
  let anon = Protocol.response_line ~id:None ~status:"invalid" [] in
  let json = Result.get_ok (Obs.Json.of_string anon) in
  Alcotest.(check (option string)) "null id" None (Protocol.response_id json)

(* --- Daemon: healthy path ---------------------------------------------- *)

let test_daemon_healthy_batch () =
  let ids = List.init 6 (fun i -> Printf.sprintf "h%d" i) in
  let responses, stats, _ =
    with_daemon ok_handler (fun sock _ ->
        let c = connect sock in
        List.iter (fun id -> send_line c (Protocol.verify_line ~id ())) ids;
        let rs = recv_n c (List.length ids) in
        disconnect c;
        rs)
  in
  Alcotest.(check (list string)) "all ok"
    (List.map (fun _ -> "ok") ids)
    (sorted_statuses responses);
  check_ids "every id answered" ids responses;
  Alcotest.(check int) "received" 6 stats.Daemon.counts.Daemon.received;
  Alcotest.(check int) "ok" 6 stats.Daemon.counts.Daemon.ok;
  Alcotest.(check int) "latency samples" 6 (List.length stats.Daemon.latencies);
  Alcotest.(check bool) "clean drain" false stats.Daemon.timeboxed

let test_daemon_ping () =
  let json, stats, _ =
    with_daemon ok_handler (fun sock _ ->
        let c = connect sock in
        send_line c (Protocol.ping_line ~id:"p1");
        let r = recv c in
        disconnect c;
        r)
  in
  Alcotest.(check string) "pong ok" "ok" (status json);
  Alcotest.(check (option string)) "id" (Some "p1") (rid json);
  Alcotest.(check int) "counted as ping" 1 stats.Daemon.counts.Daemon.pings;
  Alcotest.(check int) "not a verify" 0 stats.Daemon.counts.Daemon.ok

(* --- Daemon: crash isolation ------------------------------------------- *)

let test_daemon_crash_isolation () =
  (* raising_oracle ~after:1: the injected handler crashes on every call. *)
  let crash = Faults.raising_oracle ~after:1 (Failure "injected crash") (fun _ -> ("ok", [])) in
  let handler ~budget:_ (p : Protocol.verify_params) =
    if p.Protocol.network_path = Some "crash" then crash p else ("ok", [])
  in
  let (mixed, extra), stats, _ =
    with_daemon handler (fun sock _ ->
        let c = connect sock in
        send_line c (Protocol.verify_line ~id:"c1" ~network_path:"crash" ());
        send_line c (Protocol.verify_line ~id:"g1" ());
        send_line c (Protocol.verify_line ~id:"c2" ~network_path:"crash" ());
        send_line c (Protocol.verify_line ~id:"g2" ());
        let mixed = recv_n c 4 in
        disconnect c;
        (* The daemon must keep serving fresh connections after crashes. *)
        let c2 = connect sock in
        send_line c2 (Protocol.verify_line ~id:"after" ());
        let extra = recv c2 in
        disconnect c2;
        (mixed, extra))
  in
  Alcotest.(check (list string)) "2 errors, 2 ok" [ "error"; "error"; "ok"; "ok" ]
    (sorted_statuses mixed);
  List.iter
    (fun r ->
      if status r = "error" then
        match Obs.Json.member "reason" r with
        | Some (Obs.Json.String reason) ->
          Alcotest.(check bool)
            "reason names the crash" true
            (String.length reason >= 15 && String.sub reason 0 15 = "request crashed")
        | _ -> Alcotest.fail "error response without reason")
    mixed;
  Alcotest.(check string) "daemon alive after crashes" "ok" (status extra);
  Alcotest.(check int) "errors tallied" 2 stats.Daemon.counts.Daemon.errors;
  Alcotest.(check int) "oks tallied" 3 stats.Daemon.counts.Daemon.ok

(* --- Daemon: backpressure ---------------------------------------------- *)

let test_daemon_sheds_exactly_when_full () =
  let gate = Mutex.create () in
  let started = Atomic.make 0 in
  let handler ~budget:_ _ =
    Atomic.incr started;
    Mutex.lock gate;
    Mutex.unlock gate;
    ("ok", [])
  in
  let responses, stats, _ =
    with_daemon ~workers:1 ~queue_capacity:2 handler (fun sock _ ->
        Mutex.lock gate;
        let c = connect sock in
        (* r1 occupies the single worker; r2, r3 fill the queue; r4, r5
           must be shed — and only they. *)
        send_line c (Protocol.verify_line ~id:"r1" ());
        await_started started 1;
        List.iter (fun id -> send_line c (Protocol.verify_line ~id ())) [ "r2"; "r3"; "r4"; "r5" ];
        let sheds = recv_n c 2 in
        Mutex.unlock gate;
        let oks = recv_n c 3 in
        disconnect c;
        (sheds, oks))
  in
  let sheds, oks = responses in
  Alcotest.(check (list string)) "sheds first" [ "shed"; "shed" ] (sorted_statuses sheds);
  check_ids "the overflow requests were shed" [ "r4"; "r5" ] sheds;
  Alcotest.(check (list string)) "accepted requests all finish" [ "ok"; "ok"; "ok" ]
    (sorted_statuses oks);
  check_ids "accepted ids" [ "r1"; "r2"; "r3" ] oks;
  Alcotest.(check int) "shed count" 2 stats.Daemon.counts.Daemon.shed;
  Alcotest.(check int) "ok count" 3 stats.Daemon.counts.Daemon.ok;
  Alcotest.(check int) "queue high water = capacity" 2 stats.Daemon.queue_high_water

(* --- Daemon: protocol faults on the wire -------------------------------- *)

let test_daemon_malformed_line () =
  let (bad, good), stats, _ =
    with_daemon ok_handler (fun sock _ ->
        let c = connect sock in
        send_line c (Faults.malformed_json_line ());
        let bad = recv c in
        (* the connection survives a protocol violation *)
        send_line c (Protocol.verify_line ~id:"after-bad" ());
        let good = recv c in
        disconnect c;
        (bad, good))
  in
  Alcotest.(check string) "invalid" "invalid" (status bad);
  Alcotest.(check (option string)) "id unrecoverable" None (rid bad);
  Alcotest.(check string) "same connection still usable" "ok" (status good);
  Alcotest.(check int) "invalid tallied" 1 stats.Daemon.counts.Daemon.invalid

let test_daemon_oversized_line () =
  let (complete, streamed, after), stats, _ =
    with_daemon ~max_line_bytes:512 ok_handler (fun sock _ ->
        let c = connect sock in
        (* A complete oversized line: parse_line rejects it. *)
        send_line c (Faults.oversized_line ~target_bytes:2048);
        let complete = recv c in
        (* An unterminated oversized line: the framer must answer once and
           resynchronise at the next newline instead of buffering forever. *)
        send_raw c (Faults.oversized_line ~target_bytes:600);
        let streamed = recv c in
        send_raw c "tail-of-oversized-line\n";
        send_line c (Protocol.verify_line ~id:"after-big" ());
        let after = recv c in
        disconnect c;
        (complete, streamed, after))
  in
  Alcotest.(check string) "complete oversized line invalid" "invalid" (status complete);
  Alcotest.(check string) "streamed oversized line invalid" "invalid" (status streamed);
  Alcotest.(check string) "resynced after discard" "ok" (status after);
  Alcotest.(check (option string)) "resynced id" (Some "after-big") (rid after);
  Alcotest.(check int) "both tallied invalid" 2 stats.Daemon.counts.Daemon.invalid;
  Alcotest.(check int) "healthy one tallied ok" 1 stats.Daemon.counts.Daemon.ok

let test_daemon_chopped_request () =
  let json, stats, _ =
    with_daemon ok_handler (fun sock _ ->
        let dead = connect sock in
        send_raw dead (Faults.chopped (Protocol.verify_line ~id:"never" ()));
        disconnect dead;
        Unix.sleepf 0.15;
        (* half a request is not a request: no response, no crash *)
        let c = connect sock in
        send_line c (Protocol.verify_line ~id:"alive" ());
        let r = recv c in
        disconnect c;
        r)
  in
  Alcotest.(check string) "daemon alive" "ok" (status json);
  Alcotest.(check int) "chopped line never counted as received" 1
    stats.Daemon.counts.Daemon.received;
  Alcotest.(check int) "exactly the live request answered ok" 1 stats.Daemon.counts.Daemon.ok

(* --- Daemon: budgets ---------------------------------------------------- *)

(* A handler that runs until its per-request budget expires — by timeout
   or by the drain hard-stop — and reports it, as the real engine does. *)
let budget_bound_handler ?started () ~budget _ =
  Option.iter Atomic.incr started;
  while not (Budget.expired budget) do
    Unix.sleepf 0.005
  done;
  ("timeout", [ ("reason", Obs.Json.String "deadline exceeded") ])

let test_daemon_request_timeout () =
  let (r1, r2), stats, _ =
    with_daemon ~default_timeout:0.05 (budget_bound_handler ()) (fun sock _ ->
        let c = connect sock in
        (* explicit per-request budget *)
        send_line c (Protocol.verify_line ~id:"t1" ~timeout:0.05 ());
        let r1 = recv c in
        (* no request timeout: the serve default applies *)
        send_line c (Protocol.verify_line ~id:"t2" ());
        let r2 = recv c in
        disconnect c;
        (r1, r2))
  in
  Alcotest.(check string) "request timeout enforced" "timeout" (status r1);
  Alcotest.(check string) "default timeout enforced" "timeout" (status r2);
  Alcotest.(check int) "tallied" 2 stats.Daemon.counts.Daemon.timed_out;
  Alcotest.(check bool) "drain still clean" false stats.Daemon.timeboxed

(* --- Daemon: graceful drain --------------------------------------------- *)

let test_daemon_drain_finishes_inflight () =
  let gate = Mutex.create () in
  let started = Atomic.make 0 in
  let handler ~budget:_ _ =
    Atomic.incr started;
    Mutex.lock gate;
    Mutex.unlock gate;
    ("ok", [])
  in
  let responses, stats, _ =
    with_daemon ~workers:1 handler (fun sock ctrl ->
        Mutex.lock gate;
        let c = connect sock in
        send_line c (Protocol.verify_line ~id:"inflight" ());
        await_started started 1;
        send_line c (Protocol.verify_line ~id:"queued" ());
        (* let the listener enqueue the second request, then drain *)
        Unix.sleepf 0.2;
        Daemon.request_drain ctrl;
        Mutex.unlock gate;
        let rs = recv_n c 2 in
        disconnect c;
        rs)
  in
  Alcotest.(check (list string)) "in-flight and queued both finish" [ "ok"; "ok" ]
    (sorted_statuses responses);
  check_ids "both answered" [ "inflight"; "queued" ] responses;
  Alcotest.(check bool) "no time-boxing needed" false stats.Daemon.timeboxed;
  Alcotest.(check int) "both ok" 2 stats.Daemon.counts.Daemon.ok

let test_daemon_drain_timeboxes_stragglers () =
  let started = Atomic.make 0 in
  let responses, stats, _ =
    with_daemon ~workers:1 ~drain_grace:0.05
      (budget_bound_handler ~started ())
      (fun sock ctrl ->
        let c = connect sock in
        send_line c (Protocol.verify_line ~id:"straggler" ());
        await_started started 1;
        Daemon.request_drain ctrl;
        let r = recv c in
        disconnect c;
        r)
  in
  Alcotest.(check string) "straggler cut off with a structured timeout" "timeout"
    (status responses);
  Alcotest.(check bool) "drain was time-boxed" true stats.Daemon.timeboxed;
  Alcotest.(check int) "tallied as timeout" 1 stats.Daemon.counts.Daemon.timed_out

(* --- Daemon: the full fault mix (acceptance criterion) ------------------ *)

let test_daemon_fault_mix_zero_exits () =
  let crash = Faults.raising_oracle (Failure "boom") (fun _ -> ("ok", [])) in
  (* Requests that name a plant go through the real handler, whose
     request-level rejections ("invalid", never a crash) join the mix; the
     bad-plant requests below are all rejected before any verification
     runs, so the mix stays fast and deterministic. *)
  let real = Serve_handler.make () in
  let handler ~budget (p : Protocol.verify_params) =
    if p.Protocol.plant <> None then real ~budget p
    else
      match p.Protocol.network_path with
      | Some "crash" -> crash p
      | _ ->
        if p.Protocol.timeout <> None then begin
          while not (Budget.expired budget) do
            Unix.sleepf 0.005
          done;
          ("timeout", [ ("reason", Obs.Json.String "deadline exceeded") ])
        end
        else ("ok", [ ("source", Obs.Json.String "cold") ])
  in
  let responses, stats, cfg =
    with_daemon ~max_line_bytes:1024 handler (fun sock _ ->
        (* a client that dies mid-request, alongside the main batch *)
        let dead = connect sock in
        send_raw dead (Faults.chopped (Protocol.verify_line ~id:"never" ()));
        disconnect dead;
        let c = connect sock in
        send_line c (Protocol.verify_line ~id:"h1" ());
        send_line c (Faults.malformed_json_line ());
        send_line c (Protocol.verify_line ~id:"x1" ~network_path:"crash" ());
        send_line c (Protocol.verify_line ~id:"b1" ~plant:"warp_drive" ());
        send_line c (Protocol.verify_line ~id:"h2" ());
        send_line c (Faults.oversized_line ~target_bytes:4096);
        send_line c (Protocol.verify_line ~id:"x2" ~network_path:"crash" ());
        send_line c
          (Protocol.verify_line ~id:"b2" ~plant:"poly_3d"
             ~network_path:"../data/trained_nh10.nn" ());
        send_line c (Protocol.verify_line ~id:"slow" ~timeout:0.05 ());
        send_line c (Protocol.verify_line ~id:"h3" ());
        let rs = recv_n c 10 in
        disconnect c;
        rs)
  in
  (* Every complete line got exactly one structured response. *)
  Alcotest.(check (list string))
    "statuses of the whole mix"
    [
      "error"; "error"; "invalid"; "invalid"; "invalid"; "invalid"; "ok"; "ok"; "ok"; "timeout";
    ]
    (sorted_statuses responses);
  check_ids "every identifiable request answered under its id"
    [ "b1"; "b2"; "h1"; "h2"; "h3"; "slow"; "x1"; "x2" ]
    responses;
  (* The bad-plant rejections are structured: each names the offending
     request field. *)
  let field_of id =
    match List.find_opt (fun r -> rid r = Some id) responses with
    | None -> Alcotest.failf "no response for %s" id
    | Some r -> (
      match Obs.Json.member "field" r with
      | Some (Obs.Json.String f) -> f
      | _ -> Alcotest.failf "%s: invalid response without a field name" id)
  in
  Alcotest.(check string) "unknown plant names the plant field" "plant" (field_of "b1");
  Alcotest.(check string) "arity mismatch names the network field" "network" (field_of "b2");
  let c = stats.Daemon.counts in
  Alcotest.(check int) "received counts every complete line" 10 c.Daemon.received;
  Alcotest.(check int) "ok" 3 c.Daemon.ok;
  Alcotest.(check int) "errors isolated" 2 c.Daemon.errors;
  Alcotest.(check int) "invalid" 4 c.Daemon.invalid;
  Alcotest.(check int) "timeout" 1 c.Daemon.timed_out;
  Alcotest.(check int) "nothing shed" 0 c.Daemon.shed;
  (* The daemon reached drain and returned stats: zero daemon exits.  Its
     report must pass the same validator CI gates run reports with. *)
  let report = Daemon.serve_report cfg stats in
  (match Obs.Report.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "serve report invalid: %s" e);
  let meta key =
    match Obs.Json.member "meta" report with
    | Some m -> Obs.Json.member key m
    | None -> None
  in
  Alcotest.(check (option (float 0.0))) "report received" (Some 10.0)
    (Option.bind (meta "received") Obs.Json.number);
  (match meta "drain" with
  | Some (Obs.Json.String "clean") -> ()
  | _ -> Alcotest.fail "drain must be reported clean");
  match (meta "p50_seconds", meta "p99_seconds") with
  | Some (Obs.Json.Float p50), Some (Obs.Json.Float p99) ->
    Alcotest.(check bool) "p50 <= p99" true (p50 <= p99)
  | _ -> Alcotest.fail "latency percentiles missing from serve report"

(* --- Daemon: real handler, cache front ---------------------------------- *)

let test_daemon_real_handler_cache_hit () =
  let store = fresh_dir () in
  let (r1, r2), stats, _ =
    with_daemon ~workers:1 (Serve_handler.make ~store ()) (fun sock _ ->
        let c = connect sock in
        send_line c (Protocol.verify_line ~id:"cold" ~width:2 ~seed:7 ());
        let r1 = recv c in
        send_line c (Protocol.verify_line ~id:"warm" ~width:2 ~seed:7 ());
        let r2 = recv c in
        disconnect c;
        (r1, r2))
  in
  Alcotest.(check string) "cold run proves" "ok" (status r1);
  Alcotest.(check string) "repeat proves" "ok" (status r2);
  (match Obs.Json.member "source" r1 with
  | Some (Obs.Json.String "cold") -> ()
  | _ -> Alcotest.fail "first run must be cold");
  (match Obs.Json.member "exported" r1 with
  | Some (Obs.Json.String _) -> ()
  | _ -> Alcotest.fail "cold proof must be exported");
  (match Obs.Json.member "source" r2 with
  | Some (Obs.Json.String "cache_hit") -> ()
  | _ -> Alcotest.fail "repeat must hit the cache");
  Alcotest.(check int) "hit tallied" 1 stats.Daemon.counts.Daemon.cache_hits;
  Alcotest.(check int) "miss tallied" 1 stats.Daemon.counts.Daemon.cache_misses

(* Plant- and scenario-addressed requests against the real handler: a named
   registry plant verifies under its bundled controller and reports its
   name back; a scenario file is a complete problem statement; a request
   naming a missing scenario file is a structured rejection. *)
let test_daemon_real_handler_plants () =
  let store = fresh_dir () in
  let scn_path = Filename.concat (fresh_dir ()) "linear.scn" in
  Scenario.save scn_path (Scenario.make ~plant:"linear_2d" ());
  let responses, stats, _ =
    with_daemon ~workers:1 (Serve_handler.make ~store ()) (fun sock _ ->
        let c = connect sock in
        send_line c (Protocol.verify_line ~id:"duff" ~plant:"duffing" ());
        send_line c (Protocol.verify_line ~id:"scn" ~scenario_path:scn_path ());
        send_line c (Protocol.verify_line ~id:"gone" ~scenario_path:"/nonexistent.scn" ());
        let rs = recv_n c 3 in
        disconnect c;
        rs)
  in
  let by_id id =
    match List.find_opt (fun r -> rid r = Some id) responses with
    | Some r -> r
    | None -> Alcotest.failf "no response for %s" id
  in
  let plant_of r =
    match Obs.Json.member "plant" r with
    | Some (Obs.Json.String p) -> p
    | _ -> Alcotest.failf "response without a plant field: %s" (Obs.Json.to_string r)
  in
  let duff = by_id "duff" in
  Alcotest.(check string) "plant request proves" "ok" (status duff);
  Alcotest.(check string) "response names the plant" "duffing" (plant_of duff);
  let scn = by_id "scn" in
  Alcotest.(check string) "scenario request proves" "ok" (status scn);
  Alcotest.(check string) "scenario response names its plant" "linear_2d" (plant_of scn);
  let gone = by_id "gone" in
  Alcotest.(check string) "missing scenario rejected" "invalid" (status gone);
  (match Obs.Json.member "field" gone with
  | Some (Obs.Json.String "scenario") -> ()
  | _ -> Alcotest.fail "missing scenario must name the scenario field");
  Alcotest.(check int) "no crashes" 0 stats.Daemon.counts.Daemon.errors

(* --- Problem resolution ---------------------------------------------------- *)

let verify_params line =
  match Protocol.parse_line line with
  | Ok { Protocol.op = Protocol.Verify p; _ } -> p
  | _ -> Alcotest.failf "not a verify request: %s" line

let ok_or_fail = function Ok v -> v | Error reason -> Alcotest.fail reason

let combined (e : Scenario.elaborated) =
  let closed = e.Scenario.closed in
  (Artifact.fingerprint ?network:closed.Plant.network ~plant:closed.Plant.id closed.Plant.system
     e.Scenario.config)
    .Artifact.combined

let request_problem ?default line =
  match Serve_handler.problem ?default (verify_params line) with
  | Ok e -> e
  | Error (field, reason) -> Alcotest.failf "%s: %s" field reason

(* A plant named without a width verifies under its bundled controller:
   no registry plant is rejected, and none is widened. *)
let test_plant_requests_without_width () =
  let handler = Serve_handler.make () in
  List.iter
    (fun (plant : Plant.t) ->
      let name = plant.Plant.name in
      let line = Protocol.verify_line ~id:name ~plant:name () in
      (match handler ~budget:(Budget.with_timeout 10.0) (verify_params line) with
      | "invalid", fields ->
        Alcotest.failf "%s rejected: %s" name
          (Obs.Json.to_string ~indent:false (Obs.Json.Obj fields))
      | _ -> ());
      let bundled = ok_or_fail (Registry.elaborate (Scenario.make ~plant:name ())) in
      Alcotest.(check string) (name ^ " under its bundled controller") (combined bundled)
        (combined (request_problem line)))
    (Registry.plants ())

(* The registry's [dubins] scenario as [scenarios show dubins] emits it: a
   Dubins file that leaves its controller unset. *)
let dubins_file () =
  let entry = Option.get (Registry.find_scenario "dubins") in
  let e = ok_or_fail (Registry.elaborate entry.Registry.scenario) in
  let path = Filename.concat (fresh_dir ()) "dubins.scn" in
  Scenario.save path (Scenario.re_emit e);
  path

(* The certificate store's addresses: the CLI's and the request's way of
   stating each problem land on the same, pinned, entry. *)
let test_store_fingerprints_pinned () =
  let id = "fp" and nh10 = "../data/trained_nh10.nn" and duffing = "../examples/duffing.scn" in
  let dubins = dubins_file () in
  let cli ?scenario ?network ?width ?gamma ?lie ?linear_terms () =
    ok_or_fail
      (Registry.problem ?scenario ?network:(Option.map Nn.load network) ?width ?gamma ?lie
         ?linear_terms ~jobs:1 ())
  in
  List.iter
    (fun (what, cli, request, want) ->
      Option.iter
        (fun cli -> Alcotest.(check string) (what ^ ", CLI") want (combined (cli ())))
        cli;
      Alcotest.(check string) (what ^ ", request") want (combined (request_problem request)))
    [
      ( "width 2",
        Some (cli ~width:2),
        Protocol.verify_line ~id ~width:2 (),
        "7bc13627a247f9af9fa8987f8eac49d7" );
      ( "width 10",
        Some (cli ~width:10),
        Protocol.verify_line ~id (),
        "ca503d317c194cedb5fe2ba89e32b8fb" );
      ( "no flags",
        Some cli,
        Protocol.verify_line ~id ~width:10 (),
        "ca503d317c194cedb5fe2ba89e32b8fb" );
      ( "network",
        Some (cli ~network:nh10),
        Protocol.verify_line ~id ~network_path:nh10 (),
        "28a3efa22da698d3ea522065a338f069" );
      ( "width 10, lie, quadratic_linear, gamma 1e-5",
        Some (cli ~width:10 ~lie:true ~linear_terms:true ~gamma:1e-5),
        Protocol.verify_line ~id ~width:10 ~lie:true ~linear_terms:true ~gamma:1e-5 (),
        "ee7ff0ed97db0c1f1a5dc33923b4e830" );
      ( "duffing scenario",
        Some (cli ~scenario:duffing),
        Protocol.verify_line ~id ~scenario_path:duffing (),
        "1c4bf967cf03e995111b4810a902ea58" );
      ( "dubins scenario",
        Some (cli ~scenario:dubins),
        Protocol.verify_line ~id ~scenario_path:dubins (),
        "13482df8972b9e3f8811ffc1d168cf61" );
      ( "dubins scenario, width 4 ignored",
        Some (cli ~scenario:dubins ~width:4),
        Protocol.verify_line ~id ~scenario_path:dubins ~width:4 (),
        "13482df8972b9e3f8811ffc1d168cf61" );
      ( "plant duffing, width 20",
        None,
        Protocol.verify_line ~id ~plant:"duffing" ~width:20 (),
        "02fa0cc804db62926d319b0b1f8dc063" );
    ]

(* The daemon's scenario is elaborated once: its controller survives the
   controller file's removal, and a request that changes nothing reuses
   it outright. *)
let test_daemon_scenario_kept () =
  let dir = fresh_dir () in
  let net = Filename.concat dir "c.nn" and path = Filename.concat dir "d.scn" in
  Nn.save (Nn.load "../data/controllers/duffing.nn") net;
  Scenario.save path
    { (Scenario.make ~plant:"duffing" ()) with Scenario.controller = Scenario.File "c.nn" };
  let store = fresh_dir () in
  let handler = Serve_handler.make ~store ~scenario:path () in
  let e = ok_or_fail (Registry.problem ~scenario:path ()) in
  Sys.remove net;
  let status, fields = handler ~budget:(Budget.with_timeout 10.0) (verify_params {|{"id":"d"}|}) in
  Alcotest.(check string) "still proves" "ok" status;
  (match List.assoc_opt "exported" fields with
  | Some (Obs.Json.String dir) ->
    Alcotest.(check string) "same store entry" (combined e) (Filename.basename dir)
  | _ -> Alcotest.fail "fresh proof not exported");
  Alcotest.(check bool) "an empty request is the daemon's problem" true
    (request_problem ~default:e {|{"id":"d"}|} == e);
  let g = request_problem ~default:e {|{"id":"g","gamma":1e-3}|} in
  Alcotest.(check bool) "the daemon's controller under a request's gamma" true
    (g.Scenario.closed.Plant.network = e.Scenario.closed.Plant.network);
  Alcotest.(check (float 0.0)) "the request's gamma" 1e-3 g.Scenario.config.Engine.gamma

(* A request naming no file is elaborated once per handler: a repeat, under
   another seed too, compiles no field tape.  A request naming a network
   file reads it every time, so a file replaced between two requests is
   picked up. *)
let test_handler_keeps_elaborations () =
  let handler = Serve_handler.make () in
  (* A cancelled budget ends the engine before its first solver query, so
     what compiles is the plant's field. *)
  let cancelled = Budget.make ~cancel:(fun () -> true) () in
  let compiles line =
    Obs.Metrics.reset ();
    Obs.Metrics.enable ();
    Fun.protect ~finally:Obs.Metrics.disable (fun () ->
        ignore (handler ~budget:cancelled (verify_params line)));
    let n = Obs.Metrics.value (Obs.Metrics.counter "tape.compile") in
    Obs.Metrics.reset ();
    n
  in
  let duffing = Protocol.verify_line ~id:"a" ~plant:"duffing" () in
  Alcotest.(check bool) "the first request compiles the field" true (compiles duffing > 0);
  Alcotest.(check int) "a repeat compiles nothing" 0 (compiles duffing);
  Alcotest.(check int) "nor one under another seed" 0
    (compiles (Protocol.verify_line ~id:"b" ~plant:"duffing" ~seed:3 ~no_cache:true ()));
  let store = fresh_dir () in
  let handler = Serve_handler.make ~store () in
  let path = Filename.concat (fresh_dir ()) "c.nn" in
  let line = Protocol.verify_line ~id:"n" ~network_path:path () in
  let exported width =
    Nn.save (Error_dynamics.controller_of_width width) path;
    match handler ~budget:(Budget.with_timeout 10.0) (verify_params line) with
    | "ok", fields -> (
      match List.assoc_opt "exported" fields with
      | Some (Obs.Json.String dir) -> Filename.basename dir
      | _ -> Alcotest.failf "width %d: fresh proof not exported" width)
    | status, _ -> Alcotest.failf "width %d: %s" width status
  in
  let first = exported 2 in
  Alcotest.(check string) "the file's controller" (combined (request_problem line)) first;
  let second = exported 4 in
  Alcotest.(check string) "the replaced file's controller" (combined (request_problem line))
    second;
  Alcotest.(check bool) "a different entry" true (first <> second)

(* --- run --------------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "bqueue",
        [
          Alcotest.test_case "bounded and fifo" `Quick test_bqueue_bounded_fifo;
          Alcotest.test_case "close drains accepted items" `Quick test_bqueue_close_drains;
          Alcotest.test_case "bad capacity" `Quick test_bqueue_bad_capacity;
          Alcotest.test_case "concurrent producers and consumers" `Quick test_bqueue_concurrent;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "verify round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "defaults and ping" `Quick test_protocol_defaults_and_ping;
          Alcotest.test_case "rejects" `Quick test_protocol_rejects;
          Alcotest.test_case "unknown fields ignored" `Quick test_protocol_forward_compat;
          Alcotest.test_case "response accessors" `Quick test_protocol_response_accessors;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "healthy batch" `Quick test_daemon_healthy_batch;
          Alcotest.test_case "ping" `Quick test_daemon_ping;
          Alcotest.test_case "crash isolation" `Quick test_daemon_crash_isolation;
          Alcotest.test_case "sheds exactly when full" `Quick test_daemon_sheds_exactly_when_full;
          Alcotest.test_case "malformed line" `Quick test_daemon_malformed_line;
          Alcotest.test_case "oversized line" `Quick test_daemon_oversized_line;
          Alcotest.test_case "chopped request" `Quick test_daemon_chopped_request;
          Alcotest.test_case "request timeouts" `Quick test_daemon_request_timeout;
          Alcotest.test_case "drain finishes in-flight" `Quick test_daemon_drain_finishes_inflight;
          Alcotest.test_case "drain time-boxes stragglers" `Quick
            test_daemon_drain_timeboxes_stragglers;
          Alcotest.test_case "fault mix, zero daemon exits" `Quick
            test_daemon_fault_mix_zero_exits;
          Alcotest.test_case "real handler cache hit" `Quick test_daemon_real_handler_cache_hit;
          Alcotest.test_case "real handler plants and scenarios" `Quick
            test_daemon_real_handler_plants;
        ] );
      ( "problem",
        [
          Alcotest.test_case "plant requests without a width" `Quick
            test_plant_requests_without_width;
          Alcotest.test_case "store fingerprints pinned" `Quick test_store_fingerprints_pinned;
          Alcotest.test_case "daemon scenario kept" `Quick test_daemon_scenario_kept;
          Alcotest.test_case "request elaborations kept" `Quick test_handler_keeps_elaborations;
        ] );
    ]
