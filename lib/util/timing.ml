(* The pipeline's clock.  [now] drives every Budget deadline, so it must
   never run backwards: an NTP step (or a test-injected jump) under the raw
   wall clock would otherwise instantly expire — or indefinitely extend —
   every deadline in flight.  Monotonicity is enforced by a process-global
   never-decreasing cursor over the raw source: a backwards raw jump makes
   [now] hold still until the raw clock catches back up, which is the
   conservative behaviour for deadlines (time neither jumps forward nor
   rewinds).  The cursor is an [Atomic.t], so the guarantee holds across
   worker domains sharing one budget. *)

let default_clock = Unix.gettimeofday

(* Injectable raw source, for clock-fault regression tests only. *)
let clock = Atomic.make default_clock

let cursor = Atomic.make neg_infinity

let now () =
  let t = (Atomic.get clock) () in
  let rec bump () =
    let last = Atomic.get cursor in
    if t <= last then last
    else if Atomic.compare_and_set cursor last t then t
    else bump ()
  in
  bump ()

let wall () = Unix.gettimeofday ()

let set_clock_for_tests source =
  (match source with
  | Some f -> Atomic.set clock f
  | None -> Atomic.set clock default_clock);
  (* Drop the cursor so the next [now] re-anchors on the new source
     (restoring the real clock after a fake one that ran far ahead must not
     freeze [now] until the wall catches up). *)
  Atomic.set cursor neg_infinity

let time f =
  let t0 = now () in
  let result = f () in
  (* [now] is monotonic, so the difference is already >= 0; the clamp is a
     defence in depth should the clock source ever be swapped mid-measure. *)
  (result, Float.max 0.0 (now () -. t0))
