type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  max_line_bytes : int;
  default_timeout : float option;
  deadline : float option;
  drain_grace : float;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_capacity = 64;
    max_line_bytes = Protocol.default_max_line_bytes;
    default_timeout = None;
    deadline = None;
    drain_grace = 5.0;
  }

type handler = budget:Budget.t -> Protocol.verify_params -> string * (string * Obs.Json.t) list

type counts = {
  received : int;
  ok : int;
  failed : int;
  timed_out : int;
  errors : int;
  invalid : int;
  shed : int;
  pings : int;
  cache_hits : int;
  cache_misses : int;
}

type stats = {
  counts : counts;
  queue_high_water : int;
  latencies : float list;
  uptime : float;
  timeboxed : bool;
}

type control = bool Atomic.t

let control () = Atomic.make false

let request_drain c = Atomic.set c true

let draining c = Atomic.get c

(* --- Connections ------------------------------------------------------ *)

(* The listener domain owns [pending]/[discarding]; workers and the
   listener share the fd for writes under [wlock] ([fd_closed] is only
   touched under it too), and [eof]/[inflight] are atomics. *)
type conn = {
  fd : Unix.file_descr;
  mutable pending : string;  (* bytes read but not yet newline-terminated *)
  mutable discarding : bool;  (* inside an oversized line, dropping to \n *)
  wlock : Mutex.t;
  mutable fd_closed : bool;
  eof : bool Atomic.t;
  inflight : int Atomic.t;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Write one response line; a dead client (EPIPE & friends) is that
   connection's problem, never the daemon's. *)
let send conn line =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if not conn.fd_closed then
        try write_all conn.fd (line ^ "\n")
        with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> Atomic.set conn.eof true)

let close_conn conn =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if not conn.fd_closed then begin
        conn.fd_closed <- true;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

(* --- Jobs ------------------------------------------------------------- *)

type job = {
  conn : conn;
  req_id : string;
  params : Protocol.verify_params;
  enqueued : float;  (* Timing.now at enqueue *)
}

(* --- The daemon ------------------------------------------------------- *)

type state = {
  cfg : config;
  queue : job Bqueue.t;
  parent : Budget.t;  (* serve-level budget: deadline + drain hard-stop *)
  hard_stop : Budget.switch;
  active : int Atomic.t;  (* jobs dequeued but not yet answered *)
  stats_lock : Mutex.t;
  mutable received : int;
  mutable ok : int;
  mutable failed : int;
  mutable timed_out : int;
  mutable errors : int;
  mutable invalid : int;
  mutable shed : int;
  mutable pings : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable latencies : float list;
}

let tally st f =
  Mutex.lock st.stats_lock;
  f st;
  Mutex.unlock st.stats_lock

(* --- Worker domains --------------------------------------------------- *)

let count_status st status =
  match status with
  | "ok" -> st.ok <- st.ok + 1
  | "failed" -> st.failed <- st.failed + 1
  | "timeout" -> st.timed_out <- st.timed_out + 1
  | "invalid" -> st.invalid <- st.invalid + 1
  | _ -> st.errors <- st.errors + 1

let worker st handler =
  let rec loop () =
    match Bqueue.pop st.queue with
    | None -> ()
    | Some job ->
      Atomic.incr st.active;
      (* Per-request budget: the request's own timeout (or the serve
         default), always clamped to the serve-level deadline and felled
         by the drain hard-stop. *)
      let timeout =
        match job.params.Protocol.timeout with
        | Some _ as t -> t
        | None -> st.cfg.default_timeout
      in
      let budget = Budget.child ?timeout st.parent in
      (* Crash isolation: whatever the handler does — raise, divide by
         zero, blow up a solver — becomes this one request's structured
         error response. *)
      let status, fields =
        try handler ~budget job.params
        with e ->
          ("error", [ ("reason", Obs.Json.String ("request crashed: " ^ Printexc.to_string e)) ])
      in
      let latency = Timing.now () -. job.enqueued in
      tally st (fun st ->
          count_status st status;
          st.latencies <- latency :: st.latencies;
          match List.assoc_opt "source" fields with
          | Some (Obs.Json.String "cache_hit") -> st.cache_hits <- st.cache_hits + 1
          | Some (Obs.Json.String _) -> st.cache_misses <- st.cache_misses + 1
          | _ -> ());
      send job.conn (Protocol.response_line ~id:(Some job.req_id) ~status fields);
      Atomic.decr job.conn.inflight;
      Atomic.decr st.active;
      loop ()
  in
  loop

(* --- Listener: line framing and dispatch ------------------------------ *)

let handle_line st conn line =
  tally st (fun st -> st.received <- st.received + 1);
  match Protocol.parse_line ~max_bytes:st.cfg.max_line_bytes line with
  | Ok { Protocol.id; op = Protocol.Ping } ->
    tally st (fun st -> st.pings <- st.pings + 1);
    send conn (Protocol.response_line ~id:(Some id) ~status:"ok" [ ("pong", Obs.Json.Bool true) ])
  | Ok { Protocol.id; op = Protocol.Verify params } ->
    let job = { conn; req_id = id; params; enqueued = Timing.now () } in
    Atomic.incr conn.inflight;
    if not (Bqueue.try_push st.queue job) then begin
      Atomic.decr conn.inflight;
      tally st (fun st -> st.shed <- st.shed + 1);
      send conn
        (Protocol.response_line ~id:(Some id) ~status:"shed"
           [
             ( "reason",
               Obs.Json.String
                 (Printf.sprintf "queue full (capacity %d)" st.cfg.queue_capacity) );
           ])
    end
  | Error err ->
    let id = match err with Protocol.Bad_request { id; _ } -> id | _ -> None in
    tally st (fun st -> st.invalid <- st.invalid + 1);
    send conn
      (Protocol.response_line ~id ~status:"invalid"
         [ ("reason", Obs.Json.String (Protocol.string_of_parse_error err)) ])

(* Feed a chunk of raw bytes into the per-connection line framer.  An
   over-limit line with no newline in sight is answered (once) and then
   dropped byte-by-byte until its terminator, so one hostile client cannot
   make the daemon buffer unboundedly. *)
let feed st conn chunk =
  conn.pending <- conn.pending ^ chunk;
  let continue = ref true in
  while !continue do
    match String.index_opt conn.pending '\n' with
    | Some i ->
      let line = String.sub conn.pending 0 i in
      conn.pending <-
        String.sub conn.pending (i + 1) (String.length conn.pending - i - 1);
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if conn.discarding then conn.discarding <- false (* tail of the oversized line *)
      else if String.trim line <> "" then handle_line st conn line
    | None ->
      if String.length conn.pending > st.cfg.max_line_bytes && not conn.discarding then begin
        conn.discarding <- true;
        tally st (fun st ->
            st.received <- st.received + 1;
            st.invalid <- st.invalid + 1);
        send conn
          (Protocol.response_line ~id:None ~status:"invalid"
             [
               ( "reason",
                 Obs.Json.String
                   (Protocol.string_of_parse_error
                      (Protocol.Oversized (String.length conn.pending))) );
             ]);
        conn.pending <- ""
      end
      else if conn.discarding then conn.pending <- "";
      continue := false
  done

let read_chunk st conn =
  let buf = Bytes.create 8192 in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> Atomic.set conn.eof true (* a final partial line dies with the client *)
  | n -> feed st conn (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
    Atomic.set conn.eof true
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* --- Run -------------------------------------------------------------- *)

let snapshot st ~uptime ~timeboxed =
  Mutex.lock st.stats_lock;
  let stats =
    {
      counts =
        {
          received = st.received;
          ok = st.ok;
          failed = st.failed;
          timed_out = st.timed_out;
          errors = st.errors;
          invalid = st.invalid;
          shed = st.shed;
          pings = st.pings;
          cache_hits = st.cache_hits;
          cache_misses = st.cache_misses;
        };
      queue_high_water = Bqueue.high_water st.queue;
      latencies = List.rev st.latencies;
      uptime;
      timeboxed;
    }
  in
  Mutex.unlock st.stats_lock;
  stats

let run ?(control = control ()) ~handler cfg =
  (* A dead client must surface as EPIPE on our write, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists cfg.socket_path then (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let started = Timing.now () in
  let hard_stop = Budget.switch () in
  let parent =
    Budget.with_switch hard_stop (Budget.make ?timeout:cfg.deadline ())
  in
  let st =
    {
      cfg;
      queue = Bqueue.create ~capacity:cfg.queue_capacity;
      parent;
      hard_stop;
      active = Atomic.make 0;
      stats_lock = Mutex.create ();
      received = 0;
      ok = 0;
      failed = 0;
      timed_out = 0;
      errors = 0;
      invalid = 0;
      shed = 0;
      pings = 0;
      cache_hits = 0;
      cache_misses = 0;
      latencies = [];
    }
  in
  let workers =
    Array.init (Stdlib.max 1 cfg.workers) (fun _ -> Domain.spawn (worker st handler))
  in
  let conns = ref [] in
  (* Serve until asked to drain or the serve-level deadline passes.  The
     0.05 s select timeout bounds how long a drain request can go
     unnoticed. *)
  while (not (draining control)) && not (Budget.expired st.parent) do
    let live = List.filter (fun c -> not (Atomic.get c.eof)) !conns in
    let fds = listen_fd :: List.map (fun c -> c.fd) live in
    (match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd == listen_fd then begin
            match Unix.accept listen_fd with
            | client_fd, _ ->
              conns :=
                {
                  fd = client_fd;
                  pending = "";
                  discarding = false;
                  wlock = Mutex.create ();
                  fd_closed = false;
                  eof = Atomic.make false;
                  inflight = Atomic.make 0;
                }
                :: !conns
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.find_opt (fun c -> c.fd == fd) live with
            | Some conn -> read_chunk st conn
            | None -> ())
        ready);
    (* Reap connections whose client is gone and whose last response has
       been written. *)
    let reaped, kept =
      List.partition (fun c -> Atomic.get c.eof && Atomic.get c.inflight = 0) !conns
    in
    List.iter close_conn reaped;
    conns := kept
  done;
  (* --- Graceful drain ------------------------------------------------ *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  (* No new pushes can arrive (the listener above was the only producer);
     closing lets the workers drain what was accepted and then exit. *)
  Bqueue.close st.queue;
  let grace_deadline = Timing.now () +. cfg.drain_grace in
  let busy () = Bqueue.depth st.queue > 0 || Atomic.get st.active > 0 in
  while busy () && Timing.now () < grace_deadline do
    Unix.sleepf 0.01
  done;
  let timeboxed = busy () in
  (* Time-box stragglers: firing the parent switch cancels every child
     budget, so in-flight verifications stop at their next budget poll
     and are answered with structured timeouts. *)
  if timeboxed then Budget.fire st.hard_stop;
  Array.iter Domain.join workers;
  List.iter close_conn !conns;
  snapshot st ~uptime:(Timing.now () -. started) ~timeboxed

(* --- Serve report ----------------------------------------------------- *)

let serve_report ?(meta = []) cfg (stats : stats) =
  let c = stats.counts in
  let completed = c.ok + c.failed + c.timed_out + c.errors in
  let probes = c.cache_hits + c.cache_misses in
  let hit_rate =
    if probes = 0 then 0.0 else float_of_int c.cache_hits /. float_of_int probes
  in
  let busy = List.fold_left ( +. ) 0.0 stats.latencies in
  Obs.Report.make
    ~meta:
      ([
         ("mode", Obs.Json.String "serve");
         ("socket", Obs.Json.String cfg.socket_path);
         ("workers", Obs.Json.Int cfg.workers);
         ("queue_capacity", Obs.Json.Int cfg.queue_capacity);
         ("received", Obs.Json.Int c.received);
         ("ok", Obs.Json.Int c.ok);
         ("failed", Obs.Json.Int c.failed);
         ("timeout", Obs.Json.Int c.timed_out);
         ("error", Obs.Json.Int c.errors);
         ("invalid", Obs.Json.Int c.invalid);
         ("shed", Obs.Json.Int c.shed);
         ("pings", Obs.Json.Int c.pings);
         ("cache_hits", Obs.Json.Int c.cache_hits);
         ("cache_misses", Obs.Json.Int c.cache_misses);
         ("cache_hit_rate", Obs.Json.Float hit_rate);
         ("queue_high_water", Obs.Json.Int stats.queue_high_water);
         ("p50_seconds", Obs.Json.Float (Obs.Report.percentile 0.50 stats.latencies));
         ("p99_seconds", Obs.Json.Float (Obs.Report.percentile 0.99 stats.latencies));
         ("drain", Obs.Json.String (if stats.timeboxed then "timeboxed" else "clean"));
       ]
      @ meta)
    ~stages:[ Obs.Report.stage ~name:"requests" ~seconds:busy ~calls:completed () ]
    ~total_seconds:stats.uptime
    ~counters:(Obs.Metrics.dump_counters () |> List.filter (fun (_, v) -> v <> 0))
    ()
