(* dubins-cold: the paper's case study at Table 1's largest row.  Each op is
   a cold [Engine.verify] of the Dubins error dynamics under the Nh = 1000
   widened controller at jobs 2 (the CLI default, equal to nproc here), one
   op at a time.  Seed simulation dominates an op; condition (5) is most of
   the rest. *)

let width = 1000

let jobs = 2

(* A unit is one op under each of these engine rng seeds, all of which
   prove at Nh = 1000; the workload seed only orders them.  An op's cost
   depends on its rng seed (0.8 s to 1.1 s here), so every run works
   through whole units, and with them through the same multiset of seeds. *)
let rng_seeds = Array.init 8 (fun i -> i + 1)

let setup ~seed ~warmup () =
  let closed, widen_s =
    Timing.time (fun () ->
        let plant = Option.get (Registry.find_plant "dubins_error") in
        let net =
          match Plant.widened_default plant width with
          | Ok net -> net
          | Error e -> failwith e
        in
        Plant.close_exn plant (Plant.Network net))
  in
  let wl, inputs_s =
    Timing.time (fun () ->
        let base = Plant.default_engine_config closed.Plant.plant in
        let config =
          { base with Engine.jobs; smt = { base.Engine.smt with Solver.jobs } }
        in
        let ops =
          Array.map
            (fun rng_seed ->
              {
                Engine_ops.label = Printf.sprintf "dubins_error/nh%d" width;
                closed;
                config;
                rng_seed;
                expect = Engine_ops.Prove;
              })
            rng_seeds
        in
        let order = Array.init (Array.length ops) Fun.id in
        Rng.shuffle (Rng.create seed) order;
        (* Warm-up: one op, the same whatever the workload seed, so lazy
           state (the domain pool, heap growth to the working size) settles
           in set-up. *)
        { Engine_ops.ops; units = [| [| order |] |]; repeat_counts = false; warmup = [| [| 0 |] |] })
  in
  let (), warmup_s = Timing.time (fun () -> if warmup then Engine_ops.run_warmup wl) in
  (wl, [ ("setup.widen_s", widen_s); ("setup.inputs_s", inputs_s); ("setup.warmup_s", warmup_s) ])

let run args = Engine_ops.run ~args ~setup:(setup ~seed:args.Common.seed)
