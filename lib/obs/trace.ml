(* Nested spans over the monotonic clock.

   Hot-path contract: with the sink disabled (the default), [with_span]
   costs exactly one atomic flag read before delegating to the thunk — no
   allocation, no clock read.

   Domain-safety: every domain records into its own domain-local buffer
   (span stack + completed list), so workers of [Pool.parallel_map] never
   contend on a lock per span.  A domain's buffer is merged into the global
   collector under a mutex whenever its span stack empties — for a pool
   worker that is the end of each task, i.e. at batch boundaries — so by
   the time a parallel stage returns to the submitter, every span it
   spawned is visible in {!spans}. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  t_start : float;
  t_stop : float;
  domain : int;
}

let enabled_flag = Atomic.make false

let enable () = Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let next_id = Atomic.make 1

type local = { mutable stack : int list; mutable buf : span list }

let key = Domain.DLS.new_key (fun () -> { stack = []; buf = [] })

let mutex = Mutex.create ()

let completed : span list ref = ref []

let flush_local l =
  if l.buf <> [] then begin
    Mutex.lock mutex;
    completed := List.rev_append l.buf !completed;
    Mutex.unlock mutex;
    l.buf <- []
  end

let reset () =
  Mutex.lock mutex;
  completed := [];
  Mutex.unlock mutex;
  let l = Domain.DLS.get key in
  l.stack <- [];
  l.buf <- []

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let l = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match l.stack with [] -> None | p :: _ -> Some p in
    l.stack <- id :: l.stack;
    let t_start = Timing.now () in
    Fun.protect
      ~finally:(fun () ->
        let t_stop = Timing.now () in
        (match l.stack with _ :: rest -> l.stack <- rest | [] -> ());
        l.buf <-
          { id; parent; name; t_start; t_stop; domain = (Domain.self () :> int) } :: l.buf;
        if l.stack = [] then flush_local l)
      f
  end

let spans () =
  flush_local (Domain.DLS.get key);
  Mutex.lock mutex;
  let all = !completed in
  Mutex.unlock mutex;
  List.sort
    (fun a b ->
      match Float.compare a.t_start b.t_start with 0 -> Int.compare a.id b.id | c -> c)
    all

let duration s = s.t_stop -. s.t_start

let span_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
      ("name", Json.String s.name);
      ("start_s", Json.Float s.t_start);
      ("duration_s", Json.Float (duration s));
      ("domain", Json.Int s.domain);
    ]

let to_json ss = Json.List (List.map span_json ss)

let write_file path =
  Json.write_file path
    (Json.Obj
       [
         ("schema", Json.String "safebarrier.trace");
         ("schema_version", Json.Int 1);
         ("spans", to_json (spans ()));
       ])
