let var_derr = "derr"

let var_theta_err = "theta_err"

type config = { v : float; theta_r : float }

let default_config = { v = 1.0; theta_r = 0.0 }

let[@inline] derr_dot cfg theta_err =
  (-.cfg.v *. Float.sin (cfg.theta_r -. theta_err) *. Float.cos cfg.theta_r)
  +. (cfg.v *. Float.cos (cfg.theta_r -. theta_err) *. Float.sin cfg.theta_r)

let field cfg ~controller _t x =
  let derr = x.(0) and theta_err = x.(1) in
  let u = controller derr theta_err in
  [| derr_dot cfg theta_err; -.u |]

(* The state is the network's input, so it goes to [Nn.eval1] as it is:
   no fresh input array, and no float crossing a closure boundary. *)
let field_of_network cfg net _t x = [| derr_dot cfg x.(1); -.Nn.eval1 net x |]

let symbolic_field cfg ~u =
  let open Expr in
  let theta_err = var var_theta_err in
  let theta_r = const cfg.theta_r in
  let v = const cfg.v in
  let ddot =
    (neg (v * sin (theta_r - theta_err) * cos theta_r))
    + (v * cos (theta_r - theta_err) * sin theta_r)
  in
  [| ddot; Expr.neg u |]

let symbolic_field_simplified cfg ~u =
  let open Expr in
  [| const cfg.v * sin (var var_theta_err); Expr.neg u |]

let symbolic_controller net =
  if Nn.output_dim net <> 1 || net.Nn.input_dim <> 2 then
    invalid_arg "Error_dynamics.symbolic_controller: controller must be 2-in 1-out";
  (Nn.to_exprs net [| Expr.var var_derr; Expr.var var_theta_err |]).(0)

(* u = 0.6·tanh(0.8·derr) + 0.8·tanh(1.0·θerr): linearization
   θ̈err + 0.8·θ̇err + 0.48·θerr = 0 about the origin (V = 1), so the closed
   loop is locally exponentially stable, and saturation keeps |u| < 1.4
   globally.  Output layer is Linear so the sum is exact. *)
let reference_controller =
  let hidden =
    {
      Nn.weights = [| [| 0.8; 0.0 |]; [| 0.0; 1.0 |] |];
      biases = [| 0.0; 0.0 |];
      activation = Nn.Tansig;
    }
  in
  let output =
    { Nn.weights = [| [| 0.6; 0.8 |] |]; biases = [| 0.0 |]; activation = Nn.Linear }
  in
  Nn.of_layers ~input_dim:2 [ hidden; output ]

let controller_of_width width =
  if width < 2 || width mod 2 <> 0 then
    invalid_arg "Error_dynamics.controller_of_width: width must be a positive multiple of 2";
  (* Deterministically permute hidden neurons so the expression tree is not
     trivially ordered (harmless to the function: sums commute). *)
  match (Nn.widen reference_controller ~factor:(width / 2)).Nn.layers with
  | [ hidden; output ] ->
    let perm = Array.init width Fun.id in
    Rng.shuffle (Rng.create 1) perm;
    let hidden' =
      {
        hidden with
        Nn.weights = Array.map (fun p -> hidden.Nn.weights.(p)) perm;
        biases = Array.map (fun p -> hidden.Nn.biases.(p)) perm;
      }
    in
    let output' =
      {
        output with
        Nn.weights = Array.map (fun row -> Array.map (fun p -> row.(p)) perm) output.Nn.weights;
      }
    in
    Nn.of_layers ~input_dim:2 [ hidden'; output' ]
  | _ -> assert false

(* Hash-consing merges the identical copies [controller_of_width] makes, so
   its condition (5) atom barely grows with the width.  A 1 % jitter of
   every hidden neuron keeps the function close to the reference while
   making each neuron distinct, as in a trained network. *)
let distinct_controller_of_width width =
  let rng = Rng.create 42 in
  let jitter () = 0.01 *. Rng.uniform rng (-1.0) 1.0 in
  match (controller_of_width width).Nn.layers with
  | [ hidden; output ] ->
    let weights = Array.map (Array.map (fun w -> w *. (1.0 +. jitter ()))) hidden.Nn.weights in
    let biases = Array.map (fun b -> b +. jitter ()) hidden.Nn.biases in
    Nn.of_layers ~input_dim:2 [ { hidden with Nn.weights; biases }; output ]
  | _ -> assert false
