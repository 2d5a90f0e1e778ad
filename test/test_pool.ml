(* Worker-pool and domain-safe-budget tests.

   The container running CI may expose a single core, so none of these
   tests assert wall-clock speedup — only ordering, exception semantics,
   exact concurrent accounting, and freedom from self-deadlock. *)

let test_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f i = (i * i) + 1 in
  Alcotest.(check (array int)) "jobs=4 equals Array.map" (Array.map f xs)
    (Pool.parallel_map ~jobs:4 f xs);
  Alcotest.(check (array int)) "jobs=1 equals Array.map" (Array.map f xs)
    (Pool.parallel_map ~jobs:1 f xs)

let test_map_preserves_order () =
  (* Tasks that finish out of order (larger indices sleep less) must still
     land at their input positions. *)
  let xs = Array.init 16 (fun i -> i) in
  let f i =
    Unix.sleepf (0.001 *. float_of_int (15 - i));
    i * 10
  in
  Alcotest.(check (array int)) "ordered" (Array.map (fun i -> i * 10) xs)
    (Pool.parallel_map ~jobs:4 f xs)

let test_map_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 7 |]
    (Pool.parallel_map ~jobs:4 (fun x -> x + 1) [| 6 |])

let test_many_tiny_batches () =
  (* Wake-up-path regression: exhausted batches are unlinked from the queue
     once, at completion, rather than re-filtered by every worker wake.  A
     long run of tiny batches must make steady progress and leave the queue
     empty — a leak here keeps dead batches on the scan path forever. *)
  for i = 0 to 299 do
    let xs = Array.init 3 (fun j -> j + i) in
    let ys = Pool.parallel_map ~jobs:4 (fun v -> v * 2) xs in
    Alcotest.(check (array int))
      (Printf.sprintf "tiny batch %d" i)
      (Array.map (fun v -> v * 2) xs)
      ys
  done;
  Alcotest.(check int) "queue empty between calls" 0 (Pool.queue_length ())

exception Boom of int

let test_map_exception_propagates () =
  (* A raising task must surface in the caller, and the siblings must all
     have run to completion first (no half-finished batch left behind). *)
  let completed = Atomic.make 0 in
  let f i =
    if i = 3 then raise (Boom i);
    Atomic.incr completed;
    i
  in
  (match Pool.parallel_map ~jobs:4 f (Array.init 8 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 3 -> ());
  Alcotest.(check int) "all non-raising siblings completed" 7 (Atomic.get completed)

let test_map_nested_no_deadlock () =
  (* A task that itself fans out must drain its own batch rather than wait
     on a worker slot; with more live batches than workers this deadlocks
     unless the caller participates. *)
  let outer = Array.init 4 (fun i -> i) in
  let f i =
    let inner = Pool.parallel_map ~jobs:4 (fun j -> j + (10 * i)) (Array.init 4 (fun j -> j)) in
    Array.fold_left ( + ) 0 inner
  in
  let sums = Pool.parallel_map ~jobs:4 f outer in
  Alcotest.(check (array int)) "nested sums" [| 6; 46; 86; 126 |] sums

let test_budget_concurrent_accounting () =
  (* N domains hammering consume_branches on one shared pool: the pool
     must drain exactly, never double-granting a branch and never denying
     one.  A lost grant needs an unlucky interleaving at the very end of
     the pool, so the drain repeats, and the domains meet at a start line
     so that all of them are still drawing when the pool runs dry. *)
  let total = 10_000 and domains = 4 in
  for round = 1 to 30 do
    let budget = Budget.make ~branches:total ()
    and granted = Atomic.make 0
    and ready = Atomic.make 0 in
    let worker () =
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      let continue_ = ref true in
      while !continue_ do
        match Budget.consume_branches budget 1 with
        | None -> Atomic.incr granted
        | Some Budget.Branch_budget -> continue_ := false
        | Some s -> failwith ("unexpected stop: " ^ Budget.string_of_stop s)
      done
    in
    List.iter Domain.join (List.init domains (fun _ -> Domain.spawn worker));
    (* The atomic fetch-and-add hands each call a distinct post-decrement
       value, and exactly those with a positive remainder are granted —
       [total - 1] of them, no matter how the domains interleave. *)
    Alcotest.(check int)
      (Printf.sprintf "exact concurrent accounting, round %d" round)
      (total - 1) (Atomic.get granted);
    Alcotest.(check bool) "drained pool reports zero" true
      (Budget.remaining_branches budget = Some 0)
  done

let test_budget_grant_is_own_draw () =
  (* The cancel hook runs between a call's draw and its decision, so it
     can drain the pool at exactly the worst moment: the outer call drew
     the second-to-last branch and must still be granted. *)
  let budget = ref Budget.unlimited and drained = ref false in
  let cancel () =
    if not !drained then begin
      drained := true;
      Alcotest.(check bool) "inner draw takes the last branch" true
        (Budget.consume_branches !budget 1 = Some Budget.Branch_budget)
    end;
    false
  in
  budget := Budget.make ~branches:2 ~cancel ();
  Alcotest.(check bool) "outer draw granted" true (Budget.consume_branches !budget 1 = None);
  Alcotest.(check (option int)) "pool empty" (Some 0) (Budget.remaining_branches !budget)

let test_switch_cancels () =
  let sw = Budget.switch () in
  let budget = Budget.with_switch sw Budget.unlimited in
  Alcotest.(check bool) "unfired" false (Budget.fired sw);
  Alcotest.(check bool) "live before fire" true (Budget.check budget = None);
  Budget.fire sw;
  Alcotest.(check bool) "fired" true (Budget.fired sw);
  (match Budget.check budget with
  | Some Budget.Cancelled -> ()
  | _ -> Alcotest.fail "fired switch must report Cancelled");
  (* The switch must not leak into the parent budget. *)
  Alcotest.(check bool) "parent unaffected" true (Budget.check Budget.unlimited = None)

let test_switch_first_witness_wins () =
  (* Simulate the solver's use: four siblings search, one finds a witness
     and fires the switch; the others observe cancellation at their next
     poll instead of running forever. *)
  let sw = Budget.switch () in
  let budget = Budget.with_switch sw Budget.unlimited in
  let f i =
    if i = 2 then begin
      Budget.fire sw;
      `Witness
    end
    else begin
      (* Poll until cancelled — bounded by a generous iteration cap so a
         broken switch fails the test instead of hanging it. *)
      let polls = ref 0 in
      while Budget.check budget = None && !polls < 10_000_000 do
        incr polls
      done;
      if Budget.check budget = None then `Hung else `Cancelled
    end
  in
  let outcomes = Pool.parallel_map ~jobs:4 f (Array.init 4 (fun i -> i)) in
  Array.iteri
    (fun i o ->
      match (i, o) with
      | 2, `Witness -> ()
      | 2, _ -> Alcotest.fail "task 2 must report the witness"
      | _, `Cancelled -> ()
      | _, `Witness -> Alcotest.fail "only task 2 fires"
      | _, `Hung -> Alcotest.fail "sibling never observed the fired switch")
    outcomes

let () =
  Alcotest.run "pool"
    [
      ( "parallel_map",
        [
          Alcotest.test_case "matches sequential map" `Quick test_map_matches_sequential;
          Alcotest.test_case "preserves input order" `Quick test_map_preserves_order;
          Alcotest.test_case "empty and singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "exception propagates after batch" `Quick
            test_map_exception_propagates;
          Alcotest.test_case "nested calls do not deadlock" `Quick test_map_nested_no_deadlock;
          Alcotest.test_case "many tiny batches leave queue empty" `Quick
            test_many_tiny_batches;
        ] );
      ( "budget",
        [
          Alcotest.test_case "concurrent branch accounting" `Quick
            test_budget_concurrent_accounting;
          Alcotest.test_case "grant decided by own draw" `Quick test_budget_grant_is_own_draw;
          Alcotest.test_case "switch cancels" `Quick test_switch_cancels;
          Alcotest.test_case "first witness wins" `Quick test_switch_first_witness_wins;
        ] );
    ]
