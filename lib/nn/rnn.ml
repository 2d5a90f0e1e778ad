type t = {
  w_input : Mat.t;
  w_recurrent : Mat.t;
  b_hidden : Vec.t;
  w_output : Mat.t;
  b_output : Vec.t;
  output_activation : Nn.activation;
  leak : float;
}

let of_weights ~w_input ~w_recurrent ~b_hidden ~w_output ~b_output
    ?(output_activation = Nn.Tansig) ?(leak = 1.0) () =
  if leak <= 0.0 || leak > 1.0 then invalid_arg "Rnn.of_weights: leak must be in (0, 1]";
  let hidden = Mat.rows w_input in
  if Mat.rows w_recurrent <> hidden || Mat.cols w_recurrent <> hidden then
    invalid_arg "Rnn.of_weights: recurrent matrix shape mismatch";
  if Vec.dim b_hidden <> hidden then invalid_arg "Rnn.of_weights: hidden bias mismatch";
  if Mat.cols w_output <> hidden then invalid_arg "Rnn.of_weights: output weights mismatch";
  if Vec.dim b_output <> Mat.rows w_output then
    invalid_arg "Rnn.of_weights: output bias mismatch";
  { w_input; w_recurrent; b_hidden; w_output; b_output; output_activation; leak }

let create ~rng ~inputs ~hidden ~outputs ?(output_activation = Nn.Tansig) ?(leak = 1.0) () =
  let xavier fan_in fan_out = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  let r_in = xavier inputs hidden and r_rec = xavier hidden hidden
  and r_out = xavier hidden outputs in
  of_weights
    ~w_input:(Mat.init hidden inputs (fun _ _ -> Rng.uniform rng (-.r_in) r_in))
    ~w_recurrent:(Mat.init hidden hidden (fun _ _ -> Rng.uniform rng (-.r_rec) r_rec))
    ~b_hidden:(Vec.init hidden (fun _ -> Rng.uniform rng (-0.1) 0.1))
    ~w_output:(Mat.init outputs hidden (fun _ _ -> Rng.uniform rng (-.r_out) r_out))
    ~b_output:(Vec.init outputs (fun _ -> Rng.uniform rng (-0.1) 0.1))
    ~output_activation ~leak ()

let inputs t = Mat.cols t.w_input

let hidden t = Mat.rows t.w_input

let outputs t = Mat.rows t.w_output

let step t ~state ~input =
  if Vec.dim state <> hidden t then invalid_arg "Rnn.step: state dimension mismatch";
  if Vec.dim input <> inputs t then invalid_arg "Rnn.step: input dimension mismatch";
  let pre =
    Vec.add (Mat.mul_vec t.w_input input) (Vec.add (Mat.mul_vec t.w_recurrent state) t.b_hidden)
  in
  let state' =
    Vec.init (hidden t) (fun i ->
        ((1.0 -. t.leak) *. state.(i)) +. (t.leak *. Float.tanh pre.(i)))
  in
  let out =
    Vec.map
      (Nn.apply_activation t.output_activation)
      (Vec.add (Mat.mul_vec t.w_output state') t.b_output)
  in
  (state', out)

let num_params t =
  (hidden t * inputs t) + (hidden t * hidden t) + hidden t + (outputs t * hidden t) + outputs t

let get_params t =
  let buf = Array.make (num_params t) 0.0 in
  let pos = ref 0 in
  let push_mat m =
    Array.iter
      (fun row ->
        Array.blit row 0 buf !pos (Array.length row);
        pos := !pos + Array.length row)
      m
  in
  let push_vec v =
    Array.blit v 0 buf !pos (Array.length v);
    pos := !pos + Array.length v
  in
  push_mat t.w_input;
  push_mat t.w_recurrent;
  push_vec t.b_hidden;
  push_mat t.w_output;
  push_vec t.b_output;
  buf

let set_params t theta =
  if Array.length theta <> num_params t then
    invalid_arg "Rnn.set_params: parameter vector length mismatch";
  let pos = ref 0 in
  let take_mat rows cols =
    let m =
      Mat.init rows cols (fun i j -> theta.(!pos + (i * cols) + j))
    in
    pos := !pos + (rows * cols);
    m
  in
  let take_vec n =
    let v = Vec.init n (fun i -> theta.(!pos + i)) in
    pos := !pos + n;
    v
  in
  let h = hidden t and ni = inputs t and no = outputs t in
  let w_input = take_mat h ni in
  let w_recurrent = take_mat h h in
  let b_hidden = take_vec h in
  let w_output = take_mat no h in
  let b_output = take_vec no in
  { t with w_input; w_recurrent; b_hidden; w_output; b_output }

let affine_exprs weights bias args =
  Array.init (Mat.rows weights) (fun i ->
      Array.fold_left Expr.( + )
        (Expr.const bias.(i))
        (Array.mapi (fun j a -> Expr.( * ) (Expr.const weights.(i).(j)) a) args))

let step_exprs t ~state ~input =
  if Array.length state <> hidden t then invalid_arg "Rnn.step_exprs: state arity mismatch";
  if Array.length input <> inputs t then invalid_arg "Rnn.step_exprs: input arity mismatch";
  let pre_in = affine_exprs t.w_input (Vec.zeros (hidden t)) input in
  let pre_rec = affine_exprs t.w_recurrent t.b_hidden state in
  let state' =
    Array.init (hidden t) (fun i ->
        let activated = Expr.tanh (Expr.( + ) pre_in.(i) pre_rec.(i)) in
        if t.leak = 1.0 then activated
        else
          Expr.( + )
            (Expr.( * ) (Expr.const (1.0 -. t.leak)) state.(i))
            (Expr.( * ) (Expr.const t.leak) activated))
  in
  let out =
    Array.map (Nn.activation_expr t.output_activation) (affine_exprs t.w_output t.b_output state')
  in
  (state', out)
