(* Process-global worker pool.  One mutex guards all shared state: the
   batch queue, per-batch helper/done counters, and the recorded error.
   Tasks are claimed lock-free through a per-batch atomic cursor, so the
   mutex is only touched at batch boundaries and per-task completion. *)

let default_jobs () = Domain.recommended_domain_count ()

(* A batch of [len] independent tasks.  [run i] executes task [i] and
   stores its result; claiming is via [next].  [helpers] counts worker
   domains recruited into the batch (capped so a small [jobs] on a large
   pool does not oversubscribe); [done_] counts finished tasks. *)
type batch = {
  run : int -> unit;
  len : int;
  next : int Atomic.t;
  max_helpers : int;
  mutable helpers : int;
  mutable done_ : int;
  mutable error : exn option;
  mutable dequeued : bool;
  finished : Condition.t;
}

let mutex = Mutex.create ()

let work_available = Condition.create ()

let queue : batch list ref = ref []

let workers : unit Domain.t list ref = ref []

let n_workers = ref 0

let stopping = ref false

(* Hard cap on spawned domains: far above any sane [--jobs] yet well under
   the runtime's domain limit, so a wild argument cannot abort the
   process. *)
let max_workers = 64

let exhausted b = Atomic.get b.next >= b.len

(* Called with [mutex] held: drop [b] from the queue exactly once.  Invoked
   by whichever drainer observes the cursor cross [len] (and again,
   idempotently, by the submitter on completion), so the queue never
   accumulates exhausted batches and wake-ups never have to rescan them. *)
let remove_batch b =
  if not b.dequeued then begin
    b.dequeued <- true;
    queue := List.filter (fun b' -> b' != b) !queue
  end

(* Run claimed tasks until the batch cursor is exhausted.  The first
   exception is recorded and re-raised by the submitter; later tasks still
   run so the batch always completes. *)
let drain b =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.len then begin
      (try b.run i
       with e ->
         Mutex.lock mutex;
         if b.error = None then b.error <- Some e;
         Mutex.unlock mutex);
      Mutex.lock mutex;
      b.done_ <- b.done_ + 1;
      if b.done_ = b.len then Condition.broadcast b.finished;
      Mutex.unlock mutex;
      loop ()
    end
    else begin
      (* Cursor just crossed the end: retire the batch from the queue so
         later worker wake-ups don't have to skip over it. *)
      Mutex.lock mutex;
      remove_batch b;
      Mutex.unlock mutex
    end
  in
  loop ()

(* Called with [mutex] held: pick a batch with unclaimed tasks and a free
   helper slot.  Exhausted batches are removed eagerly by their drainers
   (see [remove_batch]), so this is a plain scan of live batches — no
   queue rebuild on every wake-up. *)
let take_ready_batch () =
  match
    List.find_opt (fun b -> (not (exhausted b)) && b.helpers < b.max_helpers) !queue
  with
  | Some b ->
    b.helpers <- b.helpers + 1;
    Some b
  | None -> None

let worker () =
  Mutex.lock mutex;
  let rec loop () =
    if !stopping then Mutex.unlock mutex
    else begin
      match take_ready_batch () with
      | Some b ->
        Mutex.unlock mutex;
        drain b;
        Mutex.lock mutex;
        loop ()
      | None ->
        Condition.wait work_available mutex;
        loop ()
    end
  in
  loop ()

(* Grow the pool to [target] workers (never shrinks; workers are cheap to
   keep parked on the condition variable). *)
let ensure_workers target =
  let target = min target max_workers in
  Mutex.lock mutex;
  while !n_workers < target && not !stopping do
    incr n_workers;
    workers := Domain.spawn worker :: !workers
  done;
  Mutex.unlock mutex

let queue_length () =
  Mutex.lock mutex;
  let n = List.length !queue in
  Mutex.unlock mutex;
  n

(* Park the workers and join them so the process exits cleanly even if the
   runtime ever waits on live domains. *)
let shutdown () =
  Mutex.lock mutex;
  stopping := true;
  Condition.broadcast work_available;
  let ds = !workers in
  workers := [];
  Mutex.unlock mutex;
  List.iter Domain.join ds

let () = at_exit shutdown

let parallel_map ~jobs f xs =
  let n = Array.length xs in
  if jobs <= 1 || n <= 1 then Array.map f xs
  else begin
    ensure_workers (min (jobs - 1) (n - 1));
    let results = Array.make n None in
    let b =
      {
        run = (fun i -> results.(i) <- Some (f xs.(i)));
        len = n;
        next = Atomic.make 0;
        max_helpers = jobs - 1;
        helpers = 0;
        done_ = 0;
        error = None;
        dequeued = false;
        finished = Condition.create ();
      }
    in
    Mutex.lock mutex;
    queue := !queue @ [ b ];
    Condition.broadcast work_available;
    Mutex.unlock mutex;
    (* The submitter executes tasks too: guarantees progress when every
       worker is busy (and makes nested parallel_map deadlock-free). *)
    drain b;
    Mutex.lock mutex;
    while b.done_ < b.len do
      Condition.wait b.finished mutex
    done;
    remove_batch b;
    let error = b.error in
    Mutex.unlock mutex;
    (match error with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
