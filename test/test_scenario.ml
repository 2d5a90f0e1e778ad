(* Tests for the scenario subsystem (lib/scenario): JSON round-trips, exact
   loader error messages, elaboration override precedence, registry
   invariants, the historical pendulum entries, and the dubins_error plant's
   pinned dynamics hashes (the certificate store's cache key) and fused
   numeric field. *)

let temp_root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sb_scenario_test_%d" (Unix.getpid ()))

let fresh_path =
  let counter = ref 0 in
  fun name ->
    incr counter;
    if not (Sys.file_exists temp_root) then Unix.mkdir temp_root 0o755;
    Filename.concat temp_root (Printf.sprintf "%d-%s" !counter name)

let ok_or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

let error_of = function
  | Error msg -> msg
  | Ok _ -> Alcotest.fail "expected an error, got Ok"

(* --- JSON round-trips -------------------------------------------------- *)

(* Every optional field populated; floats are powers of two so the 9-digit
   file printer reproduces them exactly. *)
let full_scenario =
  {
    (Scenario.make ~plant:"linear_2d" ()) with
    Scenario.name = Some "full";
    description = Some "all fields populated";
    params = [ ("a11", -0.5); ("a22", -2.0) ];
    controller = Scenario.Width 4;
    x0 = Some [| (-0.25, 0.25); (-0.5, 0.5) |];
    safe = Some [| (-2.0, 2.0); (-3.0, 3.0) |];
    gamma = Some 0.125;
    delta = Some 0.0625;
    n_seed = Some 12;
    sim_dt = Some 0.25;
    sim_steps = Some 100;
    lie = Some true;
    linear_terms = Some false;
    template = Some (Template.Poly 3);
    jobs = Some 3;
    max_branches = Some 5000;
    expectation = Some Scenario.Should_fail;
  }

let test_json_roundtrip () =
  let back = ok_or_fail (Scenario.of_json (Scenario.to_json full_scenario)) in
  Alcotest.(check bool) "full scenario survives to_json/of_json" true (back = full_scenario);
  let minimal = Scenario.make ~plant:"duffing" () in
  let back = ok_or_fail (Scenario.of_json (Scenario.to_json minimal)) in
  Alcotest.(check bool) "minimal scenario survives to_json/of_json" true (back = minimal)

let test_file_roundtrip () =
  let path = fresh_path "full.scn" in
  Scenario.save path full_scenario;
  let back = ok_or_fail (Scenario.load path) in
  Alcotest.(check bool) "file round-trip" true (back = full_scenario)

(* --- loader error messages (exact) ------------------------------------- *)

let obj fields = Obs.Json.Obj fields

let test_parse_errors () =
  let check msg json want =
    Alcotest.(check string) msg want (error_of (Scenario.of_json json))
  in
  check "not an object" (Obs.Json.String "x") "scenario: document must be a JSON object";
  check "missing plant" (obj []) "scenario: missing required field \"plant\"";
  check "plant wrong type"
    (obj [ ("plant", Obs.Json.Int 3) ])
    "scenario: field \"plant\" has the wrong type (expected string)";
  check "unknown field"
    (obj [ ("plant", Obs.Json.String "duffing"); ("bogus", Obs.Json.Int 1) ])
    "scenario: unknown field \"bogus\"";
  check "gamma wrong type"
    (obj [ ("plant", Obs.Json.String "duffing"); ("gamma", Obs.Json.String "tiny") ])
    "scenario: field \"gamma\" has the wrong type (expected number)";
  check "params not an object"
    (obj [ ("plant", Obs.Json.String "duffing"); ("params", Obs.Json.List []) ])
    "scenario: field \"params\" must be an object of numbers";
  check "param not a number"
    (obj
       [
         ("plant", Obs.Json.String "duffing");
         ("params", obj [ ("alpha", Obs.Json.String "one") ]);
       ])
    "scenario: parameter \"alpha\" must be a number";
  check "controller gibberish"
    (obj [ ("plant", Obs.Json.String "duffing"); ("controller", Obs.Json.String "magic") ])
    "scenario: field \"controller\" must be \"builtin\", \"zero\", {\"width\": N}, or {\"path\": \
     FILE}";
  check "rect malformed"
    (obj
       [
         ("plant", Obs.Json.String "duffing");
         ("x0", Obs.Json.List [ Obs.Json.List [ Obs.Json.Float 0.0 ] ]);
       ])
    "scenario: field \"x0\" must be a list of [lo, hi] number pairs";
  check "scheduler is not a field"
    (obj [ ("plant", Obs.Json.String "duffing"); ("scheduler", Obs.Json.String "stealing") ])
    "scenario: unknown field \"scheduler\"";
  check "expectation misspelled"
    (obj [ ("plant", Obs.Json.String "duffing"); ("expectation", Obs.Json.String "proves") ])
    "scenario: field \"expectation\" must be \"should_prove\" or \"should_fail\"";
  check "template unknown kind"
    (obj [ ("plant", Obs.Json.String "duffing"); ("template", Obs.Json.String "cubic") ])
    "scenario: field \"template\": unknown template kind \"cubic\" (expected quadratic, \
     quadratic_linear, or poly:<d>)";
  check "template degree too small"
    (obj [ ("plant", Obs.Json.String "duffing"); ("template", Obs.Json.String "poly:1") ])
    "scenario: field \"template\": polynomial template degree 1 must be >= 2";
  check "template wrong type"
    (obj [ ("plant", Obs.Json.String "duffing"); ("template", Obs.Json.Int 4) ])
    "scenario: field \"template\" must be a string (\"quadratic\", \"quadratic_linear\", or \
     \"poly:<d>\")"

let test_elaborate_errors () =
  let check msg scenario want =
    Alcotest.(check string) msg want (error_of (Registry.elaborate scenario))
  in
  check "unknown plant"
    (Scenario.make ~plant:"segway" ())
    "scenario: unknown plant \"segway\"";
  check "unknown parameter"
    { (Scenario.make ~plant:"linear_2d" ()) with Scenario.params = [ ("zz", 1.0) ] }
    "plant linear_2d: unknown parameter \"zz\" (known: a11, a12, a21, a22)";
  check "x0 arity mismatch"
    {
      (Scenario.make ~plant:"duffing" ()) with
      Scenario.x0 = Some [| (0.0, 1.0); (0.0, 1.0); (0.0, 1.0) |];
    }
    "scenario: field \"x0\" has 3 intervals but plant duffing has 2 state variables";
  check "width on a plant without a family"
    { (Scenario.make ~plant:"pendulum" ()) with Scenario.controller = Scenario.Width 4 }
    "plant pendulum has no width-parameterized controller family";
  (* A controller network with the wrong shape is an elaboration error that
     names the mismatch, not a crash. *)
  let bad_net = Error_dynamics.controller_of_width 4 in
  let poly_3d = Option.get (Registry.find_plant "poly_3d") in
  Alcotest.(check string) "arity-mismatched network"
    "plant poly_3d: controller network takes 2 inputs but the plant has 3 state variables"
    (error_of (Plant.close poly_3d (Plant.Network bad_net)));
  let missing =
    error_of
      (Registry.elaborate
         {
           (Scenario.make ~plant:"duffing" ()) with
           Scenario.controller = Scenario.File (fresh_path "does-not-exist.nn");
         })
  in
  Alcotest.(check bool) "missing controller file names the loader" true
    (String.length missing >= 25 && String.sub missing 0 25 = "scenario: controller file")

(* --- elaboration precedence -------------------------------------------- *)

let test_override_precedence () =
  let plant = Option.get (Registry.find_plant "duffing") in
  let base =
    {
      Engine.default_config with
      Engine.n_seed = 11;
      smt = { Engine.default_config.Engine.smt with Solver.delta = 0.5 };
    }
  in
  (* Nothing overridden: rectangles and gamma come from the plant, the rest
     from base. *)
  let e =
    ok_or_fail
      (Scenario.elaborate ~plants:Registry.find_plant ~base (Scenario.make ~plant:"duffing" ()))
  in
  Alcotest.(check bool) "x0 from plant" true
    (e.Scenario.config.Engine.x0_rect = plant.Plant.default_x0);
  Alcotest.(check (float 0.0)) "gamma from plant" plant.Plant.default_gamma
    e.Scenario.config.Engine.gamma;
  Alcotest.(check int) "n_seed from base" 11 e.Scenario.config.Engine.n_seed;
  Alcotest.(check (float 0.0)) "delta from base" 0.5 e.Scenario.config.Engine.smt.Solver.delta;
  (* Scenario fields beat both. *)
  let overridden =
    {
      (Scenario.make ~plant:"duffing" ()) with
      Scenario.x0 = Some [| (-0.1, 0.1); (-0.1, 0.1) |];
      gamma = Some 0.25;
      delta = Some 0.125;
      n_seed = Some 33;
      jobs = Some 4;
      lie = Some true;
      linear_terms = Some true;
      max_branches = Some 777;
    }
  in
  let e = ok_or_fail (Scenario.elaborate ~plants:Registry.find_plant ~base overridden) in
  let c = e.Scenario.config in
  Alcotest.(check bool) "x0 overridden" true (c.Engine.x0_rect = [| (-0.1, 0.1); (-0.1, 0.1) |]);
  Alcotest.(check bool) "safe still from plant" true
    (c.Engine.safe_rect = plant.Plant.default_safe);
  Alcotest.(check (float 0.0)) "gamma overridden" 0.25 c.Engine.gamma;
  Alcotest.(check (float 0.0)) "delta overridden" 0.125 c.Engine.smt.Solver.delta;
  Alcotest.(check int) "n_seed overridden" 33 c.Engine.n_seed;
  Alcotest.(check int) "jobs: engine" 4 c.Engine.jobs;
  Alcotest.(check int) "jobs: solver" 4 c.Engine.smt.Solver.jobs;
  Alcotest.(check bool) "lie mode" true
    (c.Engine.synthesis.Synthesis.mode = Synthesis.Lie_derivative);
  Alcotest.(check bool) "template escalated" true
    (c.Engine.template_kind = Template.Quadratic_linear);
  Alcotest.(check int) "max_branches overridden" 777 c.Engine.smt.Solver.max_branches

(* The CLI's problem, a scenario file over the flags' document: the flags
   fill what the file leaves unset, what the file sets wins, and the file's
   controller stands. *)
let test_override_file_over_flags () =
  let problem ?width doc =
    let path = fresh_path "flags.scn" in
    Scenario.save path doc;
    ok_or_fail
      (Registry.problem ~scenario:path ?width ~gamma:0.5 ~template:(Template.Poly 4) ~jobs:2 ())
  in
  let bundled plant = (Option.get (Registry.find_plant plant)).Plant.default_controller in
  let duffing = Scenario.make ~plant:"duffing" () in
  let e = problem duffing in
  Alcotest.(check (float 0.0)) "flag fills an unset gamma" 0.5 e.Scenario.config.Engine.gamma;
  Alcotest.(check int) "flag fills unset jobs" 2 e.Scenario.config.Engine.jobs;
  Alcotest.(check bool) "the file's plant keeps its own controller" true
    (e.Scenario.closed.Plant.controller = bundled "duffing");
  let e = problem { duffing with Scenario.gamma = Some 0.25; linear_terms = Some false } in
  Alcotest.(check (float 0.0)) "a gamma set in the file wins" 0.25 e.Scenario.config.Engine.gamma;
  Alcotest.(check bool) "the file's linear_terms decides the template" true
    (e.Scenario.config.Engine.template_kind = Template.Quadratic);
  (* A Dubins file without a controller is the bundled reference, not the
     flags' width-10 default nor their --width. *)
  let e = problem ~width:4 (Scenario.make ~plant:"dubins_error" ()) in
  Alcotest.(check bool) "the file's unset controller stands" true
    (e.Scenario.closed.Plant.controller = bundled "dubins_error");
  (* On one plant the parameters overlay and a set controller wins. *)
  let dubins = { (Scenario.make ~plant:"dubins_error" ()) with Scenario.params = [ ("v", 2.0) ] } in
  let flags = Registry.document ~width:10 () in
  let merged = Scenario.override { flags with Scenario.params = [ ("theta_r", 0.5) ] } dubins in
  Alcotest.(check bool) "params overlay" true
    (List.sort compare merged.Scenario.params = [ ("theta_r", 0.5); ("v", 2.0) ]);
  Alcotest.(check bool) "a controller set in the file wins" true
    ((Scenario.override flags { dubins with Scenario.controller = Scenario.Width 4 })
       .Scenario.controller
    = Scenario.Width 4)

let test_template_precedence () =
  let base = Engine.default_config in
  let with_fields template linear_terms =
    { (Scenario.make ~plant:"duffing" ()) with Scenario.template; linear_terms }
  in
  let kind_of scenario =
    let e = ok_or_fail (Scenario.elaborate ~plants:Registry.find_plant ~base scenario) in
    e.Scenario.config.Engine.template_kind
  in
  (* An explicit template field names the kind outright... *)
  Alcotest.(check bool) "template field selects Poly 4" true
    (kind_of (with_fields (Some (Template.Poly 4)) None) = Template.Poly 4);
  (* ...and beats the legacy linear_terms boolean when both are present. *)
  Alcotest.(check bool) "template beats linear_terms" true
    (kind_of (with_fields (Some Template.Quadratic) (Some true)) = Template.Quadratic);
  (* Without it the legacy boolean still works both ways. *)
  Alcotest.(check bool) "linear_terms true alone" true
    (kind_of (with_fields None (Some true)) = Template.Quadratic_linear);
  Alcotest.(check bool) "linear_terms false alone" true
    (kind_of (with_fields None (Some false)) = Template.Quadratic);
  (* Neither: the base config's kind flows through. *)
  Alcotest.(check bool) "default from base" true
    (kind_of (with_fields None None) = base.Engine.template_kind)

let test_re_emit_idempotent () =
  let e = ok_or_fail (Registry.elaborate (Scenario.make ~plant:"van_der_pol_reversed" ())) in
  let emitted = Scenario.re_emit e in
  Alcotest.(check bool) "params made explicit" true (emitted.Scenario.params = [ ("mu", 1.0) ]);
  let e2 = ok_or_fail (Registry.elaborate emitted) in
  Alcotest.(check bool) "re_emit is idempotent" true (Scenario.re_emit e2 = emitted)

(* --- registry invariants ----------------------------------------------- *)

let test_registry_invariants () =
  let plants = Registry.plants () in
  let names = List.map (fun p -> p.Plant.name) plants in
  Alcotest.(check bool) "plant names unique" true
    (List.sort_uniq compare names = List.sort compare names);
  List.iter
    (fun (p : Plant.t) ->
      let closed = ok_or_fail (Plant.close p p.Plant.default_controller) in
      let dim = Array.length p.Plant.vars in
      Alcotest.(check int)
        (p.Plant.name ^ ": symbolic field dimension")
        dim
        (Array.length closed.Plant.system.Engine.symbolic_field);
      Alcotest.(check int)
        (p.Plant.name ^ ": default x0 dimension")
        dim
        (Array.length p.Plant.default_x0);
      Alcotest.(check int)
        (p.Plant.name ^ ": default safe dimension")
        dim
        (Array.length p.Plant.default_safe);
      (* The numeric and symbolic fields agree at the rectangle centre —
         the deployed-equals-verified assumption, spot-checked. *)
      let x = Array.map (fun (lo, hi) -> 0.5 *. (lo +. hi)) p.Plant.default_x0 in
      let num = closed.Plant.system.Engine.numeric_field 0.0 x in
      let env = Array.to_list (Array.mapi (fun i v -> (v, x.(i))) p.Plant.vars) in
      Array.iteri
        (fun i e ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s: numeric=symbolic dim %d" p.Plant.name i)
            (Expr.eval_env env e) num.(i))
        closed.Plant.system.Engine.symbolic_field)
    plants;
  List.iter
    (fun (entry : Registry.entry) ->
      match Registry.elaborate entry.Registry.scenario with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (entry.Registry.name ^ ": " ^ msg))
    (Registry.scenarios ())

(* Distinct plants and distinct parameterizations must never collide in the
   fingerprint space — the cache-isolation precondition. *)
let test_plant_identities_distinct () =
  let ids =
    List.map
      (fun (p : Plant.t) -> Artifact.hash_plant (Plant.identity p ~params:p.Plant.params))
      (Registry.plants ())
  in
  Alcotest.(check bool) "plant hashes pairwise distinct" true
    (List.sort_uniq compare ids = List.sort compare ids);
  let linear = Option.get (Registry.find_plant "linear_2d") in
  let default_id = Plant.identity linear ~params:linear.Plant.params in
  let saddle_params = [ ("a11", 1.0); ("a12", 0.0); ("a21", 0.0); ("a22", -1.0) ] in
  let saddle_id = Plant.identity linear ~params:saddle_params in
  Alcotest.(check bool) "same plant, different parameters, different hash" false
    (Artifact.hash_plant default_id = Artifact.hash_plant saddle_id);
  (* Parameter order must not matter: the hash sorts keys. *)
  let shuffled = Plant.identity linear ~params:(List.rev saddle_params) in
  Alcotest.(check string) "param order irrelevant" (Artifact.hash_plant saddle_id)
    (Artifact.hash_plant shuffled)

(* --- historical systems -------------------------------------------------- *)

let elaborate_entry name =
  match Registry.find_scenario name with
  | None -> Alcotest.failf "no registry scenario %S" name
  | Some entry -> ok_or_fail (Registry.elaborate entry.Registry.scenario)

let test_historical_systems () =
  (* The undamped pendulum must fold back to the historical closed form:
     zero damping and zero torque leave [θ̇ = ω, ω̇ = −sin θ] exactly. *)
  let theta = Expr.var "theta" and omega = Expr.var "omega" in
  let old_field = [| omega; Expr.neg (Expr.sin theta) |] in
  Array.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "undamped field dim %d" i)
        (Expr.to_string old_field.(i))
        (Expr.to_string e))
    (elaborate_entry "undamped-pendulum").Scenario.closed.Plant.system.Engine.symbolic_field;
  Alcotest.(check int) "damped-pendulum keeps n_seed = 30" 30
    (elaborate_entry "damped-pendulum").Scenario.config.Engine.n_seed

(* --- dubins_error closed loop ------------------------------------------- *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun p q -> Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float q)) a b

let dubins_closed net = ok_or_fail (Plant.close Registry.dubins_error (Plant.Network net))

(* The dynamics hash is the string the certificate store keys on, so it is
   pinned: certificates stored by earlier builds must stay cache hits. *)
let test_dubins_symbolic_parity () =
  List.iter
    (fun (width, hash) ->
      let net =
        if width = 2 then Error_dynamics.reference_controller
        else Error_dynamics.controller_of_width width
      in
      let system = (dubins_closed net).Plant.system in
      Alcotest.(check string)
        (Printf.sprintf "dynamics hash, width %d" width)
        hash (Artifact.hash_dynamics system))
    [
      (2, "a2b94748c6b7e368f28d3fe379f97329");
      (4, "e0c8349a32f20c8c8b48b7aaa2d789c3");
      (10, "a0f1fffdb200ddc31d2b8a72aeaf739a");
    ]

(* The plant simulates through the fused network kernel: bit-identical to
   [Error_dynamics.field_of_network] at arbitrary states (the safe
   rectangle and beyond). *)
let prop_dubins_numeric_parity =
  QCheck.Test.make ~name:"dubins numeric field is bit-identical to field_of_network" ~count:300
    QCheck.(triple (int_range 1 5) (float_range (-6.0) 6.0) (float_range (-1.5) 1.5))
    (fun (half_width, derr, theta_err) ->
      let net = Error_dynamics.controller_of_width (2 * half_width) in
      let fused = Error_dynamics.field_of_network Error_dynamics.default_config net in
      let registry = (dubins_closed net).Plant.system in
      let x = [| derr; theta_err |] in
      bits_equal (fused 0.0 x) (registry.Engine.numeric_field 0.0 x))

(* --- compiled plant fields ------------------------------------------------ *)

(* The tree-walking reference the compiled field must reproduce bit for bit. *)
let reference_field (system : Engine.system) x =
  let env = Array.to_list (Array.mapi (fun i v -> (v, x.(i))) system.Engine.vars) in
  Array.map (Expr.eval_env env) system.Engine.symbolic_field

let random_states rng (rect : (float * float) array) n =
  Array.init n (fun _ -> Array.map (fun (lo, hi) -> Rng.uniform rng lo hi) rect)

(* Every registry plant without a hand-written numeric field simulates
   through compiled tapes: exactly [Expr.eval_env] of its symbolic field,
   called sequentially and from two domains sharing one closure. *)
let test_compiled_fields_bit_identical () =
  let symbolic_plants =
    List.filter (fun (p : Plant.t) -> Option.is_none p.Plant.numeric_field) (Registry.plants ())
  in
  Alcotest.(check bool) "some plants simulate their symbolic field" true (symbolic_plants <> []);
  List.iter
    (fun (plant : Plant.t) ->
      let system = (ok_or_fail (Plant.close plant plant.Plant.default_controller)).Plant.system in
      let states = random_states (Rng.create 11) plant.Plant.default_safe 400 in
      let field x = system.Engine.numeric_field 0.0 x in
      Array.iter
        (fun x ->
          if not (bits_equal (field x) (reference_field system x)) then
            Alcotest.failf "%s: compiled field differs from Expr.eval_env" plant.Plant.name)
        states;
      let concurrent = Pool.parallel_map ~jobs:2 field states in
      Array.iteri
        (fun i x ->
          if not (bits_equal concurrent.(i) (reference_field system x)) then
            Alcotest.failf "%s: compiled field differs under two domains" plant.Plant.name)
        states)
    symbolic_plants

(* An analytic controller under dubins_error's hand-written field runs
   through the same compiled evaluator: u is [Expr.eval] of its expression. *)
let test_analytic_controller_compiled () =
  let plant = Option.get (Registry.find_plant "dubins_error") in
  let u = Error_dynamics.symbolic_controller Error_dynamics.reference_controller in
  let closed =
    ok_or_fail (Plant.close plant (Plant.Analytic { label = "reference (symbolic)"; exprs = [| u |] }))
  in
  let expected x =
    let env = [ (Error_dynamics.var_derr, x.(0)); (Error_dynamics.var_theta_err, x.(1)) ] in
    Error_dynamics.field Error_dynamics.default_config
      ~controller:(fun _ _ -> Expr.eval_env env u)
      0.0 x
  in
  Array.iter
    (fun x ->
      if not (bits_equal (closed.Plant.system.Engine.numeric_field 0.0 x) (expected x)) then
        Alcotest.fail "analytic controller differs from Expr.eval_env")
    (random_states (Rng.create 12) plant.Plant.default_safe 300)

(* A field over a name the plant does not declare cannot be compiled: the
   closing fails and names it. *)
let test_field_unknown_variable () =
  let duffing = Option.get (Registry.find_plant "duffing") in
  let stray =
    { duffing with Plant.symbolic_field = (fun ~get:_ ~u -> [| Expr.var "zz"; u.(0) |]) }
  in
  Alcotest.(check string) "unknown field variable"
    "plant duffing: field mentions unknown variable \"zz\""
    (error_of (Plant.close stray duffing.Plant.default_controller))

let () =
  Alcotest.run "scenario"
    [
      ( "json",
        [
          Alcotest.test_case "to_json/of_json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "template field precedence" `Quick test_template_precedence;
          Alcotest.test_case "save/load round-trip" `Quick test_file_roundtrip;
        ] );
      ( "errors",
        [
          Alcotest.test_case "parse errors name the field" `Quick test_parse_errors;
          Alcotest.test_case "elaboration errors name the field" `Quick test_elaborate_errors;
        ] );
      ( "elaborate",
        [
          Alcotest.test_case "override precedence" `Quick test_override_precedence;
          Alcotest.test_case "file over flags" `Quick test_override_file_over_flags;
          Alcotest.test_case "re_emit idempotent" `Quick test_re_emit_idempotent;
        ] );
      ( "registry",
        [
          Alcotest.test_case "invariants over all plants" `Quick test_registry_invariants;
          Alcotest.test_case "plant identities distinct" `Quick test_plant_identities_distinct;
          Alcotest.test_case "historical systems pinned" `Quick test_historical_systems;
        ] );
      ( "dubins-parity",
        [
          Alcotest.test_case "symbolic DAG fingerprint" `Quick test_dubins_symbolic_parity;
          QCheck_alcotest.to_alcotest prop_dubins_numeric_parity;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "bit-identical to Expr.eval_env" `Quick
            test_compiled_fields_bit_identical;
          Alcotest.test_case "analytic controller compiled" `Quick
            test_analytic_controller_compiled;
          Alcotest.test_case "unknown field variable" `Quick test_field_unknown_variable;
        ] );
    ]
