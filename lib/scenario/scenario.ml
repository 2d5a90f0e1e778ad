type expectation = Should_prove | Should_fail

let expectation_met expectation (outcome : Engine.outcome) =
  match (expectation, outcome) with
  | (Some Should_prove | None), Engine.Proved _ -> true
  | Some Should_fail, Engine.Failed (Engine.Timeout _ | Engine.Seed_shortfall _) -> false
  | Some Should_fail, Engine.Failed _ -> true
  | (Some Should_prove | None), Engine.Failed _ | Some Should_fail, Engine.Proved _ -> false

type controller_spec = Builtin | Zero_controller | Width of int | File of string

type t = {
  name : string option;
  description : string option;
  plant : string;
  params : (string * float) list;
  controller : controller_spec;
  x0 : (float * float) array option;
  safe : (float * float) array option;
  gamma : float option;
  delta : float option;
  n_seed : int option;
  sim_dt : float option;
  sim_steps : int option;
  lie : bool option;
  linear_terms : bool option;
  template : Template.kind option;
  jobs : int option;
  max_branches : int option;
  expectation : expectation option;
}

let make ~plant () =
  {
    name = None;
    description = None;
    plant;
    params = [];
    controller = Builtin;
    x0 = None;
    safe = None;
    gamma = None;
    delta = None;
    n_seed = None;
    sim_dt = None;
    sim_steps = None;
    lie = None;
    linear_terms = None;
    template = None;
    jobs = None;
    max_branches = None;
    expectation = None;
  }

let ( let* ) r f = Result.bind r f

let known_fields =
  [
    "name"; "description"; "plant"; "params"; "controller"; "x0"; "safe"; "gamma"; "delta";
    "n_seed"; "sim_dt"; "sim_steps"; "lie"; "linear_terms"; "template"; "jobs"; "max_branches";
    "expectation";
  ]

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* One interval of a rectangle field: a [lo, hi] pair of numbers. *)
let parse_interval = function
  | Obs.Json.List [ lo; hi ] -> (
    match (Obs.Json.number lo, Obs.Json.number hi) with
    | Some l, Some h -> Some (l, h)
    | _ -> None)
  | _ -> None

let parse_rect v =
  match v with
  | Obs.Json.List items ->
    let intervals = List.map parse_interval items in
    if List.exists Option.is_none intervals then None
    else Some (Array.of_list (List.map Option.get intervals))
  | _ -> None

let of_json json =
  match json with
  | Obs.Json.Obj fields -> (
    let* () =
      match List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields with
      | Some (k, _) -> errf "scenario: unknown field %S" k
      | None -> Ok ()
    in
    let get name = List.assoc_opt name fields in
    let opt name expected conv =
      match get name with
      | None | Some Obs.Json.Null -> Ok None
      | Some v -> (
        match conv v with
        | Some x -> Ok (Some x)
        | None -> errf "scenario: field %S has the wrong type (expected %s)" name expected)
    in
    let as_string = function Obs.Json.String s -> Some s | _ -> None in
    let as_int = function Obs.Json.Int i -> Some i | _ -> None in
    let as_bool = function Obs.Json.Bool b -> Some b | _ -> None in
    let as_number v = Obs.Json.number v in
    let* plant =
      match get "plant" with
      | None -> Error "scenario: missing required field \"plant\""
      | Some (Obs.Json.String s) -> Ok s
      | Some _ -> Error "scenario: field \"plant\" has the wrong type (expected string)"
    in
    let* name = opt "name" "string" as_string in
    let* description = opt "description" "string" as_string in
    let* params =
      match get "params" with
      | None | Some Obs.Json.Null -> Ok []
      | Some (Obs.Json.Obj kvs) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
            match Obs.Json.number v with
            | Some f -> go ((k, f) :: acc) rest
            | None -> errf "scenario: parameter %S must be a number" k)
        in
        go [] kvs
      | Some _ -> Error "scenario: field \"params\" must be an object of numbers"
    in
    let controller_err =
      "scenario: field \"controller\" must be \"builtin\", \"zero\", {\"width\": N}, or \
       {\"path\": FILE}"
    in
    let* controller =
      match get "controller" with
      | None | Some Obs.Json.Null -> Ok Builtin
      | Some (Obs.Json.String "builtin") -> Ok Builtin
      | Some (Obs.Json.String "zero") -> Ok Zero_controller
      | Some (Obs.Json.Obj [ ("width", Obs.Json.Int w) ]) -> Ok (Width w)
      | Some (Obs.Json.Obj [ ("path", Obs.Json.String p) ]) -> Ok (File p)
      | Some _ -> Error controller_err
    in
    let rect name =
      match get name with
      | None | Some Obs.Json.Null -> Ok None
      | Some v -> (
        match parse_rect v with
        | Some r -> Ok (Some r)
        | None -> errf "scenario: field %S must be a list of [lo, hi] number pairs" name)
    in
    let* x0 = rect "x0" in
    let* safe = rect "safe" in
    let* gamma = opt "gamma" "number" as_number in
    let* delta = opt "delta" "number" as_number in
    let* n_seed = opt "n_seed" "int" as_int in
    let* sim_dt = opt "sim_dt" "number" as_number in
    let* sim_steps = opt "sim_steps" "int" as_int in
    let* lie = opt "lie" "bool" as_bool in
    let* linear_terms = opt "linear_terms" "bool" as_bool in
    let* template =
      match get "template" with
      | None | Some Obs.Json.Null -> Ok None
      | Some (Obs.Json.String s) -> (
        match Template.kind_of_string s with
        | Ok k -> Ok (Some k)
        | Error reason -> errf "scenario: field \"template\": %s" reason)
      | Some _ ->
        Error
          "scenario: field \"template\" must be a string (\"quadratic\", \"quadratic_linear\", \
           or \"poly:<d>\")"
    in
    let* jobs = opt "jobs" "int" as_int in
    let* max_branches = opt "max_branches" "int" as_int in
    let* expectation =
      match get "expectation" with
      | None | Some Obs.Json.Null -> Ok None
      | Some (Obs.Json.String "should_prove") -> Ok (Some Should_prove)
      | Some (Obs.Json.String "should_fail") -> Ok (Some Should_fail)
      | Some _ ->
        Error "scenario: field \"expectation\" must be \"should_prove\" or \"should_fail\""
    in
    Ok
      {
        name;
        description;
        plant;
        params;
        controller;
        x0;
        safe;
        gamma;
        delta;
        n_seed;
        sim_dt;
        sim_steps;
        lie;
        linear_terms;
        template;
        jobs;
        max_branches;
        expectation;
      })
  | _ -> Error "scenario: document must be a JSON object"

let json_rect r =
  Obs.Json.List
    (Array.to_list r
    |> List.map (fun (lo, hi) -> Obs.Json.List [ Obs.Json.Float lo; Obs.Json.Float hi ]))

let to_json t =
  let opt name conv v = Option.map (fun x -> (name, conv x)) v in
  let str s = Obs.Json.String s in
  let fields =
    List.filter_map Fun.id
      [
        opt "name" str t.name;
        opt "description" str t.description;
        Some ("plant", str t.plant);
        (match t.params with
        | [] -> None
        | kvs ->
          Some ("params", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) kvs)));
        (match t.controller with
        | Builtin -> None
        | Zero_controller -> Some ("controller", str "zero")
        | Width w -> Some ("controller", Obs.Json.Obj [ ("width", Obs.Json.Int w) ])
        | File p -> Some ("controller", Obs.Json.Obj [ ("path", str p) ]));
        opt "x0" json_rect t.x0;
        opt "safe" json_rect t.safe;
        opt "gamma" (fun g -> Obs.Json.Float g) t.gamma;
        opt "delta" (fun d -> Obs.Json.Float d) t.delta;
        opt "n_seed" (fun n -> Obs.Json.Int n) t.n_seed;
        opt "sim_dt" (fun d -> Obs.Json.Float d) t.sim_dt;
        opt "sim_steps" (fun n -> Obs.Json.Int n) t.sim_steps;
        opt "lie" (fun b -> Obs.Json.Bool b) t.lie;
        opt "linear_terms" (fun b -> Obs.Json.Bool b) t.linear_terms;
        opt "template" (fun k -> str (Template.kind_to_string k)) t.template;
        opt "jobs" (fun n -> Obs.Json.Int n) t.jobs;
        opt "max_branches" (fun n -> Obs.Json.Int n) t.max_branches;
        opt "expectation"
          (fun e -> str (match e with Should_prove -> "should_prove" | Should_fail -> "should_fail"))
          t.expectation;
      ]
  in
  Obs.Json.Obj fields

let load path =
  match Obs.Json.read_file path with
  | Error reason -> errf "%s: %s" path reason
  | Ok json -> (
    match of_json json with
    | Ok ({ controller = File p; _ } as t) when Filename.is_relative p ->
      Ok { t with controller = File (Filename.concat (Filename.dirname path) p) }
    | Ok t -> Ok t
    | Error reason -> errf "%s: %s" path reason)

let save path t = Obs.Json.write_file path (to_json t)

(* A merge of the two documents' JSON fields: every field, present and
   future, follows the one rule. *)
let override base top =
  if not (String.equal base.plant top.plant) then invalid_arg "Scenario.override: two plants";
  let fields t = match to_json t with Obs.Json.Obj f -> f | _ -> [] in
  let set = fields top in
  let is_set k = List.mem_assoc k set in
  let template_set = is_set "template" || is_set "linear_terms" in
  let inherited (k, _) =
    (not (is_set k)) && k <> "params"
    && not (template_set && (k = "template" || k = "linear_terms"))
  in
  match of_json (Obs.Json.Obj (set @ List.filter inherited (fields base))) with
  | Error reason -> invalid_arg ("Scenario.override: " ^ reason)
  | Ok t ->
    let unset (k, _) = not (List.mem_assoc k top.params) in
    { t with params = top.params @ List.filter unset base.params }

type elaborated = { scenario : t; closed : Plant.closed; config : Engine.config }

let elaborate ~plants ?(base = Engine.default_config) ?network t =
  let* plant =
    match plants t.plant with
    | Some p -> Ok p
    | None -> errf "scenario: unknown plant %S" t.plant
  in
  let* controller =
    match (network, t.controller) with
    | Some net, _ -> Ok (Plant.Network net)
    | None, Builtin -> Ok plant.Plant.default_controller
    | None, Zero_controller -> Ok Plant.Zero
    | None, Width w -> (
      (* The bundled network's own width names the bundled network itself,
         not a member rebuilt from the width family. *)
      match plant.Plant.default_controller with
      | Plant.Network net when Nn.hidden_widths net = [ w ] -> Ok plant.Plant.default_controller
      | _ -> Result.map (fun net -> Plant.Network net) (Plant.widened_default plant w))
    | None, File path -> (
      match Nn.load path with
      | net -> Ok (Plant.Network net)
      | exception Sys_error reason -> errf "scenario: controller file: %s" reason
      | exception Failure reason -> errf "scenario: controller file %s: %s" path reason)
  in
  let* closed = Plant.close ~params:t.params plant controller in
  let dim = Array.length plant.Plant.vars in
  let check_rect name = function
    | Some r when Array.length r <> dim ->
      errf "scenario: field %S has %d intervals but plant %s has %d state variables" name
        (Array.length r) plant.Plant.name dim
    | _ -> Ok ()
  in
  let* () = check_rect "x0" t.x0 in
  let* () = check_rect "safe" t.safe in
  let dflt d = Option.value ~default:d in
  let smt =
    {
      base.Engine.smt with
      Solver.delta = dflt base.Engine.smt.Solver.delta t.delta;
      max_branches = dflt base.Engine.smt.Solver.max_branches t.max_branches;
      jobs = dflt base.Engine.smt.Solver.jobs t.jobs;
    }
  in
  let synthesis =
    {
      base.Engine.synthesis with
      Synthesis.mode =
        (match t.lie with
        | None -> base.Engine.synthesis.Synthesis.mode
        | Some true -> Synthesis.Lie_derivative
        | Some false -> Synthesis.Finite_difference);
    }
  in
  let config =
    {
      base with
      Engine.x0_rect = dflt plant.Plant.default_x0 t.x0;
      safe_rect = dflt plant.Plant.default_safe t.safe;
      gamma = dflt plant.Plant.default_gamma t.gamma;
      n_seed = dflt base.Engine.n_seed t.n_seed;
      sim_dt = dflt base.Engine.sim_dt t.sim_dt;
      sim_steps = dflt base.Engine.sim_steps t.sim_steps;
      template_kind =
        (* [template] names the kind outright and wins over the legacy
           [linear_terms] boolean (kept for compatibility). *)
        (match (t.template, t.linear_terms) with
        | Some k, _ -> k
        | None, Some true -> Template.Quadratic_linear
        | None, Some false -> Template.Quadratic
        | None, None -> base.Engine.template_kind);
      jobs = dflt base.Engine.jobs t.jobs;
      smt;
      synthesis;
    }
  in
  Ok { scenario = t; closed; config }

let re_emit e =
  {
    e.scenario with
    params = e.closed.Plant.params;
    x0 = Some e.config.Engine.x0_rect;
    safe = Some e.config.Engine.safe_rect;
    gamma = Some e.config.Engine.gamma;
  }
