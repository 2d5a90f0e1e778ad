type controller =
  | Network of Nn.t
  | Analytic of { label : string; exprs : Expr.t array }
  | Zero

type t = {
  name : string;
  version : string;
  description : string;
  vars : string array;
  control_dim : int;
  params : (string * float) list;
  symbolic_field : get:(string -> float) -> u:Expr.t array -> Expr.t array;
  numeric_field :
    (get:(string -> float) -> controller:(float array -> float array) -> Ode.field) option;
  controller_of_width : (int -> Nn.t) option;
  default_controller : controller;
  default_x0 : (float * float) array;
  default_safe : (float * float) array;
  default_gamma : float;
}

let ( let* ) r f = Result.bind r f

let resolve_params plant overrides =
  let known = List.map fst plant.params in
  let rec check = function
    | [] -> Ok ()
    | (k, _) :: rest ->
      if List.mem k known then check rest
      else
        Error
          (Printf.sprintf "plant %s: unknown parameter %S (known: %s)" plant.name k
             (String.concat ", " known))
  in
  let* () = check overrides in
  Ok
    (List.map
       (fun (k, dflt) ->
         (k, match List.assoc_opt k overrides with Some v -> v | None -> dflt))
       plant.params)

let identity plant ~params =
  Artifact.plant_id ~name:plant.name ~version:plant.version ~params

let controller_network = function Network net -> Some net | Analytic _ | Zero -> None

let controller_label = function
  | Network net ->
    Printf.sprintf "network (%s)"
      (String.concat "-"
         (List.map string_of_int (Nn.hidden_widths net @ [ Nn.output_dim net ])))
  | Analytic { label; _ } -> label
  | Zero -> "zero (open loop)"

let widened_default plant width =
  match plant.controller_of_width with
  | Some f -> (
    match f width with
    | net -> Ok net
    | exception Invalid_argument reason ->
      Error (Printf.sprintf "plant %s: %s" plant.name reason))
  | None -> (
    match plant.default_controller with
    | Network net -> (
      match Nn.hidden_widths net with
      | [ base ] when width >= base && width mod base = 0 ->
        Ok (Nn.widen net ~factor:(width / base))
      | [ base ] ->
        Error
          (Printf.sprintf "plant %s: width %d is not a positive multiple of %d" plant.name
             width base)
      | _ ->
        Error
          (Printf.sprintf "plant %s: default controller is not single-hidden-layer" plant.name))
    | Analytic _ | Zero ->
      Error
        (Printf.sprintf "plant %s has no width-parameterized controller family" plant.name))

(* Expressions the solver will see in each control slot. *)
let controller_exprs plant controller =
  let dim = Array.length plant.vars in
  match controller with
  | Zero -> Ok (Array.init plant.control_dim (fun _ -> Expr.const 0.0))
  | Network net ->
    if net.Nn.input_dim <> dim then
      Error
        (Printf.sprintf
           "plant %s: controller network takes %d inputs but the plant has %d state variables"
           plant.name net.Nn.input_dim dim)
    else if Nn.output_dim net <> plant.control_dim then
      Error
        (Printf.sprintf
           "plant %s: controller network has %d outputs but the plant has %d control slots"
           plant.name (Nn.output_dim net) plant.control_dim)
    else Ok (Nn.to_exprs net (Array.map Expr.var plant.vars))
  | Analytic { exprs; label } ->
    if Array.length exprs <> plant.control_dim then
      Error
        (Printf.sprintf
           "plant %s: analytic controller %S has %d expressions but the plant has %d control \
            slots"
           plant.name label (Array.length exprs) plant.control_dim)
    else
      let allowed = Array.to_list plant.vars in
      let stray =
        Array.to_list exprs
        |> List.concat_map (fun e -> Expr.free_vars e)
        |> List.find_opt (fun v -> not (List.mem v allowed))
      in
      (match stray with
      | Some v ->
        Error
          (Printf.sprintf "plant %s: analytic controller %S mentions unknown variable %S"
             plant.name label v)
      | None -> Ok exprs)

(* The point evaluator of expressions over [vars] that simulation uses:
   one tape per expression, compiled here once ([Tape.eval_point] is
   bit-identical to [Expr.eval]).  The closure owns one set of tape
   buffers and lends it out through an atomic slot; a caller that finds
   the slot empty (another domain is mid-evaluation) makes its own set,
   and whichever caller returns last leaves its set in the slot.  Raises
   [Expr.Unbound_variable] if an expression mentions a name outside
   [vars]. *)
let point_evaluator vars exprs =
  let index_of v =
    match Array.find_index (String.equal v) vars with
    | Some i -> i
    | None -> raise (Expr.Unbound_variable v)
  in
  let tapes =
    Array.map (fun expr -> Tape.compile ~index_of { Formula.expr; rel = Formula.Le0 }) exprs
  in
  let fresh () = Array.map Tape.make_buffers tapes in
  let slot = Atomic.make (fresh ()) in
  fun x ->
    let buffers = match Atomic.exchange slot [||] with [||] -> fresh () | b -> b in
    let out = Array.create_float (Array.length tapes) in
    for i = 0 to Array.length tapes - 1 do
      out.(i) <- Tape.eval_point tapes.(i) buffers.(i) x
    done;
    Atomic.set slot buffers;
    out

let controller_fn plant controller =
  match controller with
  | Zero ->
    let zeros = Array.make plant.control_dim 0.0 in
    fun _x -> zeros
  | Network net -> fun x -> Nn.eval net x
  | Analytic { exprs; _ } -> point_evaluator plant.vars exprs

type closed = {
  plant : t;
  params : (string * float) list;
  controller : controller;
  network : Nn.t option;
  id : Artifact.plant_id;
  system : Engine.system;
}

let close ?(params = []) plant controller =
  let* resolved = resolve_params plant params in
  let get name = List.assoc name resolved in
  let* u = controller_exprs plant controller in
  let symbolic = plant.symbolic_field ~get ~u in
  let* numeric =
    match plant.numeric_field with
    | Some f -> Ok (f ~get ~controller:(controller_fn plant controller))
    | None -> (
      (* Evaluate the closed-loop expressions directly: what is verified is
         exactly what is simulated. *)
      match point_evaluator plant.vars symbolic with
      | eval -> Ok (fun _t x -> eval x)
      | exception Expr.Unbound_variable v ->
        Error (Printf.sprintf "plant %s: field mentions unknown variable %S" plant.name v))
  in
  Ok
    {
      plant;
      params = resolved;
      controller;
      network = controller_network controller;
      id = identity plant ~params:resolved;
      system = { Engine.vars = plant.vars; numeric_field = numeric; symbolic_field = symbolic };
    }

let close_exn ?params plant controller =
  match close ?params plant controller with
  | Ok c -> c
  | Error reason -> invalid_arg ("Plant.close_exn: " ^ reason)

let default_engine_config plant =
  {
    Engine.default_config with
    Engine.x0_rect = plant.default_x0;
    safe_rect = plant.default_safe;
    gamma = plant.default_gamma;
  }
