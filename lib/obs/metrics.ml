(* Named counters.

   Hot-path contract: with the sink disabled (default) every recording
   call is one atomic flag read.  Enabled counters are [Atomic.t] adds, so
   concurrent pool workers merge exactly (no lost updates; the sum for a
   fixed amount of work is independent of interleaving). *)

let enabled_flag = Atomic.make false

let enable () = Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

type counter = int Atomic.t

(* The registry: counters are interned by name so a handle can be created
   at module-init time anywhere and still denote one shared counter. *)
let registry_mutex = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock registry_mutex;
  c

let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c n)

let incr c = add c 1

let value = Atomic.get

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Mutex.unlock registry_mutex

let dump_counters () =
  Mutex.lock registry_mutex;
  let entries = Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) counters [] in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries
