let source_token = function
  | Cache.Cold -> "cold"
  | Cache.Cache_hit _ -> "cache_hit"
  | Cache.Warm_started _ -> "warm_start"

(* A failure is a rejection naming the request field to fix: the request
   is answerable, just wrong about the plant. *)
let problem ?default (p : Protocol.verify_params) =
  let ( let* ) = Result.bind in
  let document ?plant ?width () =
    Registry.document ?plant ?width ?gamma:p.Protocol.gamma ~lie:p.Protocol.lie
      ~linear_terms:p.Protocol.linear_terms ()
  in
  (* The request over a scenario file: the file's controller stands. *)
  let over (file : Scenario.t) = Scenario.override file (document ~plant:file.Scenario.plant ()) in
  let* doc, daemon =
    match (p.Protocol.scenario_path, p.Protocol.plant, default) with
    | Some path, _, _ -> (
      match Scenario.load path with
      | Ok file -> Ok (over file, None)
      | Error reason -> Error ("scenario", reason))
    | None, Some plant, _ when Registry.find_plant plant = None ->
      let known = List.map (fun p -> p.Plant.name) (Registry.plants ()) in
      Error
        ("plant", Printf.sprintf "unknown plant %S (known: %s)" plant (String.concat ", " known))
    | None, None, Some (e : Scenario.elaborated) -> Ok (over e.Scenario.scenario, Some e)
    | None, plant, _ -> Ok (document ?plant ?width:p.Protocol.width (), None)
  in
  let elaborate network =
    Result.map_error
      (fun reason ->
        match (p.Protocol.network_path, p.Protocol.scenario_path) with
        | Some _, _ -> ("network", reason)
        | None, Some _ -> ("scenario", reason)
        | None, None -> ("width", reason))
      (Registry.elaborate ?network doc)
  in
  (* A missing/corrupt network file raises out of [Nn.load] and becomes
     this request's "error" response (crash isolation).  The daemon's
     scenario keeps the controller it was started with. *)
  match (Option.map Nn.load p.Protocol.network_path, daemon) with
  | None, Some e when doc = e.Scenario.scenario -> Ok e
  | None, Some e -> elaborate e.Scenario.closed.Plant.network
  | network, _ -> elaborate network

(* The most problems a handler keeps elaborated; a new one past it starts
   the table over. *)
let memo_limit = 64

let make ?store ?scenario () : Daemon.handler =
  let default =
    Option.map
      (fun path ->
        match Result.bind (Scenario.load path) Registry.elaborate with
        | Ok e -> e
        | Error reason -> invalid_arg (Printf.sprintf "Serve_handler.make: %s" reason))
      scenario
  in
  (* A request that names no file is elaborated once, like the daemon's
     scenario: widening a controller and compiling a plant's field tapes
     take milliseconds a request.  The key is the request without the
     fields [problem] does not read.  Files are read every time, so a
     replaced one is picked up.  Closed systems are domain-safe
     (DESIGN.md §5n), so every worker shares them. *)
  let memo = Hashtbl.create 16 and lock = Mutex.create () in
  let resolve (p : Protocol.verify_params) =
    match (p.Protocol.network_path, p.Protocol.scenario_path) with
    | Some _, _ | _, Some _ -> problem ?default p
    | None, None -> (
      let key = { p with Protocol.seed = 0; timeout = None; no_cache = false } in
      match Mutex.protect lock (fun () -> Hashtbl.find_opt memo key) with
      | Some e -> Ok e
      | None ->
        let resolved = problem ?default p in
        Result.iter
          (fun e ->
            Mutex.protect lock (fun () ->
                if Hashtbl.length memo >= memo_limit then Hashtbl.reset memo;
                Hashtbl.replace memo key e))
          resolved;
        resolved)
  in
  fun ~budget (p : Protocol.verify_params) ->
    match resolve p with
    | Error (field, reason) ->
      ( "invalid",
        [ ("field", Obs.Json.String field); ("reason", Obs.Json.String reason) ] )
    | Ok { Scenario.closed; config; _ } ->
      let system = closed.Plant.system in
      let rng = Rng.create p.Protocol.seed in
      let report, store_fields =
        match store with
        | Some root ->
          let result =
            Cache.verify ~config ~budget ~use_cache:(not p.Protocol.no_cache)
              ?network:closed.Plant.network ~plant:closed.Plant.id ~store:root ~rng system
          in
          let exported =
            match result.Cache.exported with
            | Some dir -> [ ("exported", Obs.Json.String dir) ]
            | None -> []
          in
          ( result.Cache.report,
            ("source", Obs.Json.String (source_token result.Cache.source)) :: exported )
        | None -> (Engine.verify ~config ~budget ~rng system, [])
      in
      let fields =
        Engine.outcome_meta report.Engine.outcome
        @ store_fields
        @ [
            ("plant", Obs.Json.String closed.Plant.plant.Plant.name);
            ("seconds", Obs.Json.Float report.Engine.stats.Engine.total_time);
          ]
      in
      let status =
        match report.Engine.outcome with
        | Engine.Proved _ -> "ok"
        | Engine.Failed (Engine.Timeout _) -> "timeout"
        | Engine.Failed _ -> "failed"
      in
      (status, fields)
