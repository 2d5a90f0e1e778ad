(* Two-layer tansig controller: one tansig hidden layer, linear output —
   the controller class of the paper's case study. *)
let tansig_controller ~input_dim ~hidden_weights ~output_weights =
  let nh = Array.length hidden_weights in
  Nn.of_layers ~input_dim
    [
      { Nn.weights = hidden_weights; biases = Array.make nh 0.0; activation = Nn.Tansig };
      {
        Nn.weights = output_weights;
        biases = Array.make (Array.length output_weights) 0.0;
        activation = Nn.Linear;
      };
    ]

(* --- dubins_error: the paper's case study ------------------------------ *)

let dubins_error =
  {
    Plant.name = "dubins_error";
    version = "1.0.0";
    description =
      "Dubins vehicle cross-track/heading error dynamics (the paper's case study, \
       Tuncali et al. DAC'18)";
    vars = [| Error_dynamics.var_derr; Error_dynamics.var_theta_err |];
    control_dim = 1;
    params = [ ("v", 1.0); ("theta_r", 0.0) ];
    symbolic_field =
      (fun ~get ~u ->
        Error_dynamics.symbolic_field
          { Error_dynamics.v = get "v"; theta_r = get "theta_r" }
          ~u:u.(0));
    numeric_field =
      (* Delegate to Error_dynamics: simulation runs the fused Nn.eval
         kernel directly, not a field tape (DESIGN.md §5n). *)
      Some
        (fun ~get ~controller ->
          Error_dynamics.field
            { Error_dynamics.v = get "v"; theta_r = get "theta_r" }
            ~controller:(fun derr theta_err -> (controller [| derr; theta_err |]).(0)));
    controller_of_width = Some Error_dynamics.controller_of_width;
    default_controller = Plant.Network Error_dynamics.reference_controller;
    default_x0 = Engine.default_config.Engine.x0_rect;
    default_safe = Engine.default_config.Engine.safe_rect;
    default_gamma = Engine.default_config.Engine.gamma;
  }

(* --- inverted_pendulum: Zhao et al. (arXiv:2009.09826) ----------------- *)

let inverted_pendulum =
  let theta = Expr.var "theta" and omega = Expr.var "omega" in
  {
    Plant.name = "inverted_pendulum";
    version = "1.0.0";
    description =
      "torque-controlled inverted pendulum about the upright equilibrium: θ̇ = ω, ω̇ = \
       (g/l)·sin θ − (b/ml²)·ω + u/ml²";
    vars = [| "theta"; "omega" |];
    control_dim = 1;
    params = [ ("g", 9.8); ("l", 1.0); ("m", 1.0); ("b", 0.2) ];
    symbolic_field =
      (fun ~get ~u ->
        let g = get "g" and l = get "l" and m = get "m" and b = get "b" in
        let ml2 = m *. l *. l in
        let open Expr in
        [|
          omega;
          (const (g /. l) * sin theta) - (const (b /. ml2) * omega) + (const (1.0 /. ml2) * u.(0));
        |]);
    numeric_field = None;
    controller_of_width = None;
    default_controller =
      (* u = −20·tanh(2θ) − 4·tanh(ω): near the origin ω̇ ≈ −30.2·θ − 4.2·ω,
         and |u| saturates at 24 against a gravity torque of at most
         g·sin θ ≤ 9.8, so the upright point dominates on the whole safe
         rectangle. *)
      Plant.Network
        (tansig_controller ~input_dim:2
           ~hidden_weights:[| [| 2.0; 0.0 |]; [| 0.0; 1.0 |] |]
           ~output_weights:[| [| -20.0; -4.0 |] |]);
    default_x0 = [| (-0.1, 0.1); (-0.1, 0.1) |];
    default_safe = [| (-0.6, 0.6); (-1.5, 1.5) |];
    default_gamma = 1e-6;
  }

(* --- duffing: double-well Duffing oscillator --------------------------- *)

let duffing =
  let x = Expr.var "x" and y = Expr.var "y" in
  {
    Plant.name = "duffing";
    version = "1.0.0";
    description =
      "controlled double-well Duffing oscillator: ẋ = y, ẏ = αx − βx³ − δy + u (open-loop \
       origin is a saddle)";
    vars = [| "x"; "y" |];
    control_dim = 1;
    params = [ ("alpha", 1.0); ("beta", 1.0); ("damping", 0.3) ];
    symbolic_field =
      (fun ~get ~u ->
        let open Expr in
        [|
          y;
          (const (get "alpha") * x)
          - (const (get "beta") * (x * x * x))
          - (const (get "damping") * y)
          + u.(0);
        |]);
    numeric_field = None;
    controller_of_width = None;
    default_controller =
      (* u = −2.5·tanh(1.2x) − tanh(y) turns the open-loop saddle into a
         damped stable focus: near the origin ẏ ≈ −2x − 1.3y. *)
      Plant.Network
        (tansig_controller ~input_dim:2
           ~hidden_weights:[| [| 1.2; 0.0 |]; [| 0.0; 1.0 |] |]
           ~output_weights:[| [| -2.5; -1.0 |] |]);
    default_x0 = [| (-0.15, 0.15); (-0.15, 0.15) |];
    default_safe = [| (-1.0, 1.0); (-1.0, 1.0) |];
    default_gamma = 1e-6;
  }

(* --- poly_2d / poly_3d: Peruffo/Ahmed/Abate-style models --------------- *)

let poly_2d =
  let x = Expr.var "x" and y = Expr.var "y" in
  {
    Plant.name = "poly_2d";
    version = "1.0.0";
    description =
      "2-D polynomial model (Peruffo/Ahmed/Abate style): ẋ = −x³ + y, ẏ = −x − y³ + u";
    vars = [| "x"; "y" |];
    control_dim = 1;
    params = [];
    symbolic_field =
      (fun ~get:_ ~u ->
        let open Expr in
        [| neg (x * x * x) + y; neg x - (y * y * y) + u.(0) |]);
    numeric_field = None;
    controller_of_width = None;
    default_controller =
      (* u = −tanh(y): adds −y·tanh(y) ≤ 0 to V̇ for V = (x²+y²)/2, which is
         already −x⁴ − y⁴ open loop. *)
      Plant.Network
        (tansig_controller ~input_dim:2 ~hidden_weights:[| [| 0.0; 1.0 |] |]
           ~output_weights:[| [| -1.0 |] |]);
    default_x0 = [| (-0.2, 0.2); (-0.2, 0.2) |];
    default_safe = [| (-1.0, 1.0); (-1.0, 1.0) |];
    default_gamma = 1e-6;
  }

let poly_3d =
  let x = Expr.var "x" and y = Expr.var "y" and z = Expr.var "z" in
  {
    Plant.name = "poly_3d";
    version = "1.0.0";
    description =
      "3-D cascade (Peruffo/Ahmed/Abate style): ẋ = −x + y, ẏ = −y + z, ż = −z + u — \
       exercises the engine beyond two dimensions";
    vars = [| "x"; "y"; "z" |];
    control_dim = 1;
    params = [];
    symbolic_field =
      (fun ~get:_ ~u ->
        let open Expr in
        [| neg x + y; neg y + z; neg z + u.(0) |]);
    numeric_field = None;
    controller_of_width = None;
    default_controller =
      (* u = −tanh(x) closes the cascade; eigenvalues −2 and −1/2 ± i√3/2. *)
      Plant.Network
        (tansig_controller ~input_dim:3
           ~hidden_weights:[| [| 1.0; 0.0; 0.0 |] |]
           ~output_weights:[| [| -1.0 |] |]);
    default_x0 = [| (-0.1, 0.1); (-0.1, 0.1); (-0.1, 0.1) |];
    default_safe = [| (-0.8, 0.8); (-0.8, 0.8); (-0.8, 0.8) |];
    default_gamma = 1e-6;
  }

(* --- plants behind the historical five-system suite --------------------- *)

let pendulum =
  let theta = Expr.var "theta" and omega = Expr.var "omega" in
  {
    Plant.name = "pendulum";
    version = "1.0.0";
    description = "hanging pendulum with a torque slot: θ̇ = ω, ω̇ = −sin θ − b·ω + u";
    vars = [| "theta"; "omega" |];
    control_dim = 1;
    params = [ ("damping", 0.5) ];
    symbolic_field =
      (fun ~get ~u ->
        let open Expr in
        [| omega; neg (sin theta) - (const (get "damping") * omega) + u.(0) |]);
    numeric_field = None;
    controller_of_width = None;
    default_controller =
      Plant.Analytic
        {
          label = "tanh torque";
          exprs =
            (let open Expr in
             [| neg (const 0.8 * tanh theta) - (const 0.4 * tanh omega) |]);
        };
    default_x0 = [| (-0.3, 0.3); (-0.3, 0.3) |];
    default_safe = [| (-2.5, 2.5); (-3.0, 3.0) |];
    default_gamma = 1e-6;
  }

let linear_2d =
  let x = Expr.var "x" and y = Expr.var "y" in
  {
    Plant.name = "linear_2d";
    version = "1.0.0";
    description = "parameterized planar linear system ẋ = a11·x + a12·y, ẏ = a21·x + a22·y + u";
    vars = [| "x"; "y" |];
    control_dim = 1;
    params = [ ("a11", -1.0); ("a12", 0.5); ("a21", -0.3); ("a22", -2.0) ];
    symbolic_field =
      (fun ~get ~u ->
        let open Expr in
        [|
          (const (get "a11") * x) + (const (get "a12") * y);
          (const (get "a21") * x) + (const (get "a22") * y) + u.(0);
        |]);
    numeric_field = None;
    controller_of_width = None;
    default_controller = Plant.Zero;
    default_x0 = [| (-0.5, 0.5); (-0.5, 0.5) |];
    default_safe = [| (-3.0, 3.0); (-3.0, 3.0) |];
    default_gamma = 1e-6;
  }

let van_der_pol_reversed =
  let x = Expr.var "x" and y = Expr.var "y" in
  {
    Plant.name = "van_der_pol_reversed";
    version = "1.0.0";
    description =
      "time-reversed Van der Pol oscillator: ẋ = −y, ẏ = x + (x² − μ)·y + u — stable origin \
       inside the reversed limit cycle";
    vars = [| "x"; "y" |];
    control_dim = 1;
    params = [ ("mu", 1.0) ];
    symbolic_field =
      (fun ~get ~u ->
        let open Expr in
        [| neg y; x + (((x * x) - const (get "mu")) * y) + u.(0) |]);
    numeric_field = None;
    controller_of_width = None;
    default_controller = Plant.Zero;
    default_x0 = [| (-0.25, 0.25); (-0.25, 0.25) |];
    default_safe = [| (-0.9, 0.9); (-0.9, 0.9) |];
    default_gamma = 1e-6;
  }

let all_plants =
  [
    dubins_error;
    inverted_pendulum;
    duffing;
    poly_2d;
    poly_3d;
    pendulum;
    linear_2d;
    van_der_pol_reversed;
  ]

let plants () = all_plants

let find_plant name = List.find_opt (fun p -> String.equal p.Plant.name name) all_plants

(* --- built-in scenarios ------------------------------------------------ *)

type entry = { name : string; description : string; scenario : Scenario.t }

let scn ?(params = []) ?(controller = Scenario.Builtin) ?n_seed ?x0 ?template ~plant
    ~expectation name description =
  {
    name;
    description;
    scenario =
      {
        (Scenario.make ~plant ()) with
        Scenario.name = Some name;
        params;
        controller;
        n_seed;
        x0;
        template;
        expectation = Some expectation;
      };
  }

let all_scenarios =
  [
    scn "dubins" ~plant:"dubins_error" ~expectation:Scenario.Should_prove
      "the paper's case study with the width-2 reference tansig controller";
    scn "inverted-pendulum" ~plant:"inverted_pendulum" ~expectation:Scenario.Should_prove
      "upright pendulum stabilized by the bundled tansig torque controller";
    scn "inverted-pendulum-open-loop" ~plant:"inverted_pendulum"
      ~controller:Scenario.Zero_controller ~expectation:Scenario.Should_fail
      "upright pendulum with no control: the equilibrium is unstable, no decreasing W exists";
    scn "duffing" ~plant:"duffing" ~expectation:Scenario.Should_prove
      "double-well Duffing oscillator stabilized by the bundled tansig controller";
    scn "duffing-open-loop" ~plant:"duffing" ~controller:Scenario.Zero_controller
      ~expectation:Scenario.Should_fail
      "open-loop Duffing: the origin is a saddle between the two wells";
    scn "poly-2d" ~plant:"poly_2d" ~expectation:Scenario.Should_prove
      "2-D polynomial model with a −tanh(y) feedback";
    (* The template-ladder gate pair: X0 = [−0.8, 0.8]² nearly fills the
       safe square [−1, 1]², so every ellipsoid through the X0 corners
       (|corner| ≈ 1.13) pokes out of the square — for a centered
       a·x² + b·xy + c·y² the faces force a > ℓ and c > ℓ while the
       corners need 0.64(a + c) ≤ ℓ, a contradiction (and the off-center
       case fails the same way by symmetry of X0).  A quartic sublevel set
       like x⁴ + y⁴ ≤ ℓ separates: corners sit at W = 0.82, the faces at
       W ≥ 1. *)
    scn "poly-2d-boxy" ~plant:"poly_2d"
      ~x0:[| (-0.8, 0.8); (-0.8, 0.8) |]
      ~template:(Template.Poly 4) ~expectation:Scenario.Should_prove
      "poly_2d with X0 nearly filling the safe square: no ellipsoidal level set fits between \
       the X0 corners and the faces, a quartic one does";
    scn "poly-2d-boxy-quadratic" ~plant:"poly_2d"
      ~x0:[| (-0.8, 0.8); (-0.8, 0.8) |]
      ~template:Template.Quadratic ~expectation:Scenario.Should_fail
      "the boxy problem under the quadratic template: structurally unprovable — any ellipsoid \
       covering the X0 corners escapes the safe square";
    scn "poly-3d" ~plant:"poly_3d" ~expectation:Scenario.Should_prove
      "3-D polynomial cascade with a −tanh(x) feedback";
    scn "damped-pendulum" ~plant:"pendulum" ~n_seed:30 ~expectation:Scenario.Should_prove
      "pendulum with tanh torque feedback, stays near the hanging point";
    scn "undamped-pendulum" ~plant:"pendulum"
      ~params:[ ("damping", 0.0) ]
      ~controller:Scenario.Zero_controller ~n_seed:30 ~expectation:Scenario.Should_fail
      "frictionless pendulum: energy conserved, no decreasing W exists";
    scn "linear-stable" ~plant:"linear_2d" ~controller:Scenario.Zero_controller ~n_seed:30
      ~expectation:Scenario.Should_prove "Hurwitz linear system, the engine's easiest case";
    scn "linear-saddle" ~plant:"linear_2d"
      ~params:[ ("a11", 1.0); ("a12", 0.0); ("a21", 0.0); ("a22", -1.0) ]
      ~controller:Scenario.Zero_controller ~n_seed:30 ~expectation:Scenario.Should_fail
      "saddle point: trajectories escape along x";
    scn "van-der-pol-reversed" ~plant:"van_der_pol_reversed"
      ~controller:Scenario.Zero_controller ~n_seed:30 ~expectation:Scenario.Should_prove
      "time-reversed Van der Pol: stable origin inside the reversed limit cycle";
  ]

let scenarios () = all_scenarios

let find_scenario name = List.find_opt (fun e -> String.equal e.name name) all_scenarios

let elaborate ?network scenario = Scenario.elaborate ~plants:find_plant ?network scenario

let document ?plant ?width ?gamma ?(lie = false) ?(linear_terms = false) ?template ?jobs () =
  {
    (Scenario.make ~plant:(Option.value plant ~default:"dubins_error") ()) with
    Scenario.controller =
      (match (plant, width) with
      | _, Some w -> Scenario.Width w
      | None, None -> Scenario.Width 10
      | Some _, None -> Scenario.Builtin);
    gamma;
    lie = (if lie then Some true else None);
    template =
      (match template with None when linear_terms -> Some Template.Quadratic_linear | t -> t);
    jobs;
  }

let problem ?scenario ?plant ?network ?width ?gamma ?lie ?linear_terms ?template ?jobs () =
  let document ?plant ?width () =
    document ?plant ?width ?gamma ?lie ?linear_terms ?template ?jobs ()
  in
  let doc =
    match scenario with
    | None -> Ok (document ?plant ?width ())
    | Some path ->
      Result.map
        (fun file -> Scenario.override (document ~plant:file.Scenario.plant ()) file)
        (Scenario.load path)
  in
  Result.bind doc (elaborate ?network)
