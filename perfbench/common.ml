(* Shared pieces of the benchmark driver: arguments, the metric record every
   workload returns, the round structure of a run, statistics and process
   probes. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  dump_ops : bool;  (** print the generated op list and exit *)
}

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;  (** ops whose verdict or response differed from the expectation *)
  invariant_errors : string list;  (** broken benchmark invariants (coverage gate, repeats) *)
  metrics : metric list;
}

let m name unit_ value = { name; value; unit_ }

let log fmt = Format.eprintf ("perfbench: " ^^ fmt ^^ "@.")

(* --- statistics ---------------------------------------------------------- *)

let median = function [] -> 0.0 | xs -> Obs.Report.percentile 0.5 xs

let sum = List.fold_left ( +. ) 0.0

let mean = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* --- process probes ------------------------------------------------------ *)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

(* Put the heap in the same state before every measured phase: whatever
   the previous phase left behind (garbage, fragmentation, a half-finished
   major cycle) is collected here, untimed, instead of in the next phase. *)
let settle () = Gc.compact ()

(* The end-to-end metrics of an untraced timed phase: [latencies] of its
   completed ops, [failed] of which were wrong, over [elapsed] seconds. *)
let end_to_end ~setup_s ~elapsed ~failed latencies =
  let n = float_of_int (List.length latencies) in
  [
    m "setup_s" "s" setup_s;
    m "throughput_ops_per_s" "ops/s" (n /. elapsed);
    m "latency_p50_s" "s" (median latencies);
    m "peak_rss_mb" "MiB" (peak_rss_mb ());
    m "ok_ops_share" "share" ((n -. float_of_int failed) /. n);
  ]

(* --- rounds ---------------------------------------------------------------- *)

(* A run is [setups] rounds.  Each round sets up from scratch on a settled
   heap and then runs its share of the timed phase on that state.  The host
   this was tuned on (a shared 2-vCPU VM) changes speed over seconds, so
   set-up samples taken back to back would all see one short window; spread
   over the run, their median sees the whole run, as the timed ops do. *)
let setups = 5

(* The [seconds] of one timed phase, handed out over the rounds of a run;
   [used] is the wall time its units took so far and [next] the index of
   its next unit. *)
type clock = { seconds : float; mutable used : float; mutable next : int }

let clock seconds = { seconds; used = 0.0; next = 0 }

(* The time [c]'s phase may have used by the end of round [round]. *)
let target c ~round = c.seconds *. float_of_int (round + 1) /. float_of_int setups

(* Run whole units [unit_of c.next], [unit_of (c.next + 1)], ... until the
   phase has used its share of round [round].  The clock is read only
   between units, so a phase always consists of whole units; a round that
   starts past its share runs none. *)
let run_units c ~round unit_of =
  while c.used < target c ~round do
    let (), dt = Timing.time (fun () -> unit_of c.next) in
    c.used <- c.used +. dt;
    c.next <- c.next + 1
  done

(* Run the [setups] rounds: [setup ()] returns a state and its named,
   timed parts; [round k state] runs round [k] on it and releases it.
   Returns the median set-up time, the median of every part, and the
   rounds' results in order. *)
let rounds ~setup ~round =
  let rec go k acc =
    if k = setups then List.rev acc
    else begin
      settle ();
      let (state, parts), setup_s = Timing.time setup in
      settle ();
      let r = round k state in
      go (k + 1) ((setup_s, parts, r) :: acc)
    end
  in
  let rs = go 0 [] in
  let part_names = match rs with (_, p, _) :: _ -> List.map fst p | [] -> [] in
  let parts =
    List.map
      (fun name -> m name "s" (median (List.map (fun (_, p, _) -> List.assoc name p) rs)))
      part_names
  in
  (median (List.map (fun (s, _, _) -> s) rs), parts, List.map (fun (_, _, r) -> r) rs)

(* The stage-coverage gate of [report-validate --min-coverage 0.9]
   (DESIGN.md §5g), applied to the ops of a traced phase: the layer
   self-times must account for at least 90 % of their summed wall time.
   It is taken over the whole phase, not op by op: on two cores a single
   sub-millisecond op, or one the scheduler preempted, measures the
   scheduler rather than a missing layer. *)
let coverage_errors coverage =
  if coverage < 0.9 then [ Printf.sprintf "stage coverage %.3f below 0.9" coverage ] else []

(* --- counters ------------------------------------------------------------ *)

let counter_names =
  [
    "lp.pivots";
    "solver.branches";
    "solver.prunes";
    "solver.hc4_revise";
    "solver.steals";
    "solver.steal_failures";
    "tape.compile";
    "tape.batched_sweeps";
    "cegis.cex_cuts";
    "level_search.bisections";
  ]

let counters = List.map (fun n -> (n, Obs.Metrics.counter n)) counter_names

let snapshot () = List.map (fun (n, c) -> (n, Obs.Metrics.value c)) counters

let delta ~before ~after = List.map (fun (n, v) -> (n, v - List.assoc n before)) after

(* Per-op counter metrics of the program's own [Obs.Metrics] counters over
   a traced phase of [ops] ops. *)
let counter_metrics ~ops d =
  let c n = float_of_int (List.assoc n d) in
  let per n = ratio (c n) (float_of_int ops) in
  [
    m "lp.pivots" "count" (per "lp.pivots");
    m "smt.branches" "count" (per "solver.branches");
    m "smt.prunes" "count" (per "solver.prunes");
    m "smt.prune_ratio" "ratio" (ratio (c "solver.prunes") (c "solver.branches"));
    m "smt.hc4_revise" "count" (per "solver.hc4_revise");
    m "tape.compiles" "count" (per "tape.compile");
    m "tape.batched_sweeps" "count" (per "tape.batched_sweeps");
    m "smt.steals" "count" (per "solver.steals");
    m "smt.steal_success_ratio" "ratio"
      (ratio (c "solver.steals") (c "solver.steals" +. c "solver.steal_failures"));
    m "cegis.cex_cuts" "count" (per "cegis.cex_cuts");
    m "level_search.bisections" "count" (per "level_search.bisections");
  ]

(* --- scratch space -------------------------------------------------------- *)

(* Stores and sockets live under [.perfbench_tmp] in the working directory
   (relative, so socket paths stay short whatever the checkout path). *)
let tmp_root = ".perfbench_tmp"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let counter = ref 0 in
  fun kind ->
    incr counter;
    (try Unix.mkdir tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let d = Filename.concat tmp_root (Printf.sprintf "%s%d_%d" kind (Unix.getpid ()) !counter) in
    rm_rf d;
    Unix.mkdir d 0o755;
    d
