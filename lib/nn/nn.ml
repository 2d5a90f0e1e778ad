type activation = Tansig | Logsig | Relu | Linear

let[@inline] apply_activation act x =
  match act with
  | Tansig -> Float.tanh x
  | Logsig -> 1.0 /. (1.0 +. Float.exp (-.x))
  | Relu -> Float.max 0.0 x
  | Linear -> x

let activation_expr act e =
  match act with
  | Tansig -> Expr.tanh e
  | Logsig -> Expr.sigmoid e
  | Relu -> Expr.( / ) (Expr.( + ) e (Expr.abs e)) (Expr.const 2.0)
  | Linear -> e

let activation_name = function
  | Tansig -> "tansig"
  | Logsig -> "logsig"
  | Relu -> "relu"
  | Linear -> "linear"

let activation_of_name = function
  | "tansig" -> Tansig
  | "logsig" -> Logsig
  | "relu" -> Relu
  | "linear" -> Linear
  | s -> invalid_arg (Printf.sprintf "Nn.activation_of_name: %s" s)

type layer = { weights : Mat.t; biases : Vec.t; activation : activation }

type t = { input_dim : int; layers : layer list }

let of_layers ~input_dim layers =
  if input_dim <= 0 then invalid_arg "Nn.of_layers: non-positive input dimension";
  let _ =
    List.fold_left
      (fun prev l ->
        let d_out = Mat.rows l.weights and d_in = Mat.cols l.weights in
        if d_in <> prev then
          invalid_arg
            (Printf.sprintf "Nn.of_layers: layer expects %d inputs, got %d" d_in prev);
        if Vec.dim l.biases <> d_out then invalid_arg "Nn.of_layers: bias length mismatch";
        d_out)
      input_dim layers
  in
  { input_dim; layers }

let create ~rng ~input_dim spec =
  let layers, _ =
    List.fold_left
      (fun (acc, d_in) (d_out, activation) ->
        (* Xavier-uniform initialization. *)
        let r = sqrt (6.0 /. float_of_int (d_in + d_out)) in
        let weights = Mat.init d_out d_in (fun _ _ -> Rng.uniform rng (-.r) r) in
        let biases = Vec.init d_out (fun _ -> Rng.uniform rng (-0.1) 0.1) in
        ({ weights; biases; activation } :: acc, d_out))
      ([], input_dim) spec
  in
  of_layers ~input_dim (List.rev layers)

let output_dim net =
  match List.rev net.layers with
  | [] -> net.input_dim
  | last :: _ -> Mat.rows last.weights

let hidden_widths net =
  match net.layers with
  | [] -> []
  | layers ->
    (* All but the final (output) layer. *)
    List.filteri (fun i _ -> i < List.length layers - 1) layers
    |> List.map (fun l -> Mat.rows l.weights)

let widen net ~factor =
  if factor < 1 then invalid_arg "Nn.widen: factor must be >= 1";
  match net.layers with
  | [ hidden; output ] ->
    let nh = Mat.rows hidden.weights in
    let wide_hidden =
      {
        hidden with
        weights =
          Mat.init (nh * factor) (Mat.cols hidden.weights) (fun i j ->
              hidden.weights.(i / factor).(j));
        biases = Vec.init (nh * factor) (fun i -> hidden.biases.(i / factor));
      }
    in
    let wide_output =
      {
        output with
        weights =
          Mat.init (Mat.rows output.weights) (nh * factor) (fun i j ->
              output.weights.(i).(j / factor) /. float_of_int factor);
      }
    in
    of_layers ~input_dim:net.input_dim [ wide_hidden; wide_output ]
  | _ -> invalid_arg "Nn.widen: single-hidden-layer networks only"

(* Per-domain ping-pong scratch for hidden-layer outputs, each grown to the
   widest layer seen: a layer reads one buffer and writes the other, so a
   forward pass allocates only its output array. *)
let scratch_key = Domain.DLS.new_key (fun () -> [| [||]; [||] |])

let scratch_buffer scratch k m =
  if Array.length scratch.(k) < m then scratch.(k) <- Array.create_float m;
  scratch.(k)

(* [dst.(i) <- act (Σ_j w.(i).(j)·v.(j) + b.(i))] over the first [n]
   entries of [v]: summed from 0.0 in j order, then biased, then
   activated — the operation order of
   [Vec.map act (Vec.add (Mat.mul_vec w v) b)], so bit-identical to it. *)
let layer_into l v n dst =
  let w = l.weights and b = l.biases in
  let m = Array.length w in
  if Mat.cols w <> n then invalid_arg "Nn.eval: layer input dimension mismatch";
  if Array.length b <> m then invalid_arg "Nn.eval: bias length mismatch";
  for i = 0 to m - 1 do
    let row = Array.unsafe_get w i in
    if Array.length row <> n then invalid_arg "Nn.eval: ragged weight matrix";
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. (Array.unsafe_get row j *. Array.unsafe_get v j)
    done;
    Array.unsafe_set dst i (apply_activation l.activation (!acc +. Array.unsafe_get b i))
  done

let eval net x =
  if Vec.dim x <> net.input_dim then invalid_arg "Nn.eval: input dimension mismatch";
  let rec go scratch v n k = function
    | [] -> v
    | [ l ] ->
      let out = Array.create_float (Array.length l.weights) in
      layer_into l v n out;
      out
    | l :: rest ->
      let m = Array.length l.weights in
      let dst = scratch_buffer scratch k m in
      layer_into l v n dst;
      go scratch dst m (1 - k) rest
  in
  go (Domain.DLS.get scratch_key) x net.input_dim 0 net.layers

let eval1 net x =
  let out = eval net x in
  if Vec.dim out <> 1 then invalid_arg "Nn.eval1: network is not single-output";
  out.(0)

let num_params net =
  List.fold_left
    (fun acc l -> acc + (Mat.rows l.weights * Mat.cols l.weights) + Vec.dim l.biases)
    0 net.layers

let get_params net =
  let buf = Array.make (num_params net) 0.0 in
  let pos = ref 0 in
  List.iter
    (fun l ->
      Array.iter
        (fun row ->
          Array.blit row 0 buf !pos (Array.length row);
          pos := !pos + Array.length row)
        l.weights;
      Array.blit l.biases 0 buf !pos (Vec.dim l.biases);
      pos := !pos + Vec.dim l.biases)
    net.layers;
  buf

let set_params net theta =
  if Array.length theta <> num_params net then
    invalid_arg "Nn.set_params: parameter vector length mismatch";
  let pos = ref 0 in
  let layers =
    List.map
      (fun l ->
        let m = Mat.rows l.weights and n = Mat.cols l.weights in
        let weights =
          Mat.init m n (fun i j -> theta.(!pos + (i * n) + j))
        in
        pos := !pos + (m * n);
        let biases = Vec.init (Vec.dim l.biases) (fun i -> theta.(!pos + i)) in
        pos := !pos + Vec.dim l.biases;
        { l with weights; biases })
      net.layers
  in
  { net with layers }

let to_exprs net inputs =
  if Array.length inputs <> net.input_dim then
    invalid_arg "Nn.to_exprs: input arity mismatch";
  List.fold_left
    (fun vs l ->
      Array.init (Mat.rows l.weights) (fun i ->
          let pre =
            Array.fold_left Expr.( + )
              (Expr.const l.biases.(i))
              (Array.mapi (fun j vj -> Expr.( * ) (Expr.const l.weights.(i).(j)) vj) vs)
          in
          activation_expr l.activation pre))
    inputs net.layers

let to_string net =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "nn v1 input_dim %d layers %d\n" net.input_dim (List.length net.layers));
  (* Hex floats ([%h]) are bit-exact under round-trip — the certificate
     fingerprint and warm-start cache key on this string, so two networks
     serialize identically iff their weights are identical bit patterns
     (including negative zero and subnormals). *)
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "layer %d %d %s\n" (Mat.rows l.weights) (Mat.cols l.weights)
           (activation_name l.activation));
      Array.iter
        (fun row ->
          Array.iteri
            (fun j x -> Buffer.add_string buf (if j = 0 then Printf.sprintf "%h" x else Printf.sprintf " %h" x))
            row;
          Buffer.add_char buf '\n')
        l.weights;
      Array.iteri
        (fun j x -> Buffer.add_string buf (if j = 0 then Printf.sprintf "%h" x else Printf.sprintf " %h" x))
        l.biases;
      Buffer.add_char buf '\n')
    net.layers;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") in
  let parse_floats line =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun t -> t <> "")
    |> List.map float_of_string
    |> Array.of_list
  in
  match lines with
  | header :: rest ->
    let input_dim, n_layers =
      try Scanf.sscanf header "nn v1 input_dim %d layers %d" (fun a b -> (a, b))
      with Scanf.Scan_failure _ | Failure _ -> failwith "Nn.of_string: bad header"
    in
    let rec read_layers acc lines = function
      | 0 -> (List.rev acc, lines)
      | k -> (
        match lines with
        | spec :: rest ->
          let rows, cols, act =
            try Scanf.sscanf spec "layer %d %d %s" (fun r c a -> (r, c, a))
            with Scanf.Scan_failure _ | Failure _ -> failwith "Nn.of_string: bad layer header"
          in
          let weight_lines, rest =
            let rec take n acc = function
              | rest when n = 0 -> (List.rev acc, rest)
              | [] -> failwith "Nn.of_string: truncated weights"
              | l :: tl -> take (n - 1) (l :: acc) tl
            in
            take rows [] rest
          in
          (match rest with
          | bias_line :: rest ->
            let weights = Array.of_list (List.map parse_floats weight_lines) in
            Array.iter
              (fun row ->
                if Array.length row <> cols then failwith "Nn.of_string: row length mismatch")
              weights;
            let biases = parse_floats bias_line in
            if Array.length biases <> rows then failwith "Nn.of_string: bias length mismatch";
            read_layers
              ({ weights; biases; activation = activation_of_name act } :: acc)
              rest (k - 1)
          | [] -> failwith "Nn.of_string: truncated biases")
        | [] -> failwith "Nn.of_string: truncated layer")
    in
    let layers, leftover = read_layers [] rest n_layers in
    if leftover <> [] then failwith "Nn.of_string: trailing data";
    of_layers ~input_dim layers
  | [] -> failwith "Nn.of_string: empty input"

let save net path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string net))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_string s)

let controller ~rng ~hidden =
  create ~rng ~input_dim:2 [ (hidden, Tansig); (1, Tansig) ]
