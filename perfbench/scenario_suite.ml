(* scenario-suite: every built-in registry scenario (14, over 8 plants, 5 of
   them should-fail) verified cold with its bundled controller at jobs 1.
   Small plants, where δ-SAT and CEGIS carry most of the time; the only
   workload with real LP cuts, sampled level brackets and structural
   should-fail exits.

   A pass is every scenario under each engine rng seed of [rng_seeds], in
   an order drawn from the workload seed.  The seeds are fixed because the
   work of one verify depends strongly on them (one inverted-pendulum
   verify takes 0.12 s to 0.50 s across seeds), so a per-run draw would
   move throughput between runs by far more than any change under test.
   At jobs 1 every pass does identical work, and its counters repeat
   exactly.

   A unit is one pass on each of [lanes] domains at once, each lane over
   its own elaborations and in its own order.  One lane alone left a vCPU
   idle, and its speed then followed whatever else ran on the host: runs
   took turns between about 34 and 41 ops/s. *)

let rng_seeds = [ 1; 2 ]

let lanes = 2

let elaborate_all () =
  List.map
    (fun (e : Registry.entry) ->
      match Registry.elaborate { e.Registry.scenario with Scenario.jobs = Some 1 } with
      | Ok el -> (e, el)
      | Error why -> failwith (e.Registry.name ^ ": " ^ why))
    (Registry.scenarios ())

let pass elaborated =
  List.concat_map
    (fun ((e : Registry.entry), (el : Scenario.elaborated)) ->
      List.map
        (fun rng_seed ->
          {
            Engine_ops.label = e.Registry.name;
            closed = el.Scenario.closed;
            config = el.Scenario.config;
            rng_seed;
            expect =
              (match e.Registry.scenario.Scenario.expectation with
              | Some Scenario.Should_fail -> Engine_ops.Fail_structurally
              | Some Scenario.Should_prove | None -> Engine_ops.Prove);
          })
        rng_seeds)
    elaborated

let setup ~seed ~warmup () =
  let elaborated, elaborate_s = Timing.time (fun () -> List.init lanes (fun _ -> elaborate_all ())) in
  let wl, inputs_s =
    Timing.time (fun () ->
        let ops = Array.of_list (List.concat_map pass elaborated) in
        let n = Array.length ops / lanes in
        let rng = Rng.create seed in
        let order lane =
          let o = Array.init n (fun i -> (lane * n) + i) in
          Rng.shuffle rng o;
          o
        in
        let unit_ = Array.init lanes order in
        (* Warm-up: one whole unit, so every scenario's lazy state settles
           in set-up. *)
        { Engine_ops.ops; units = [| unit_ |]; repeat_counts = true; warmup = unit_ })
  in
  let (), warmup_s = Timing.time (fun () -> if warmup then Engine_ops.run_warmup wl) in
  ( wl,
    [
      ("scenario.elaborate_s", elaborate_s); ("setup.inputs_s", inputs_s); ("setup.warmup_s", warmup_s);
    ] )

let run args = Engine_ops.run ~args ~setup:(setup ~seed:args.Common.seed)
