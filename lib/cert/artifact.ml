type plant_id = { name : string; version : string; param_hash : string }

type fingerprint = {
  nn_hash : string;
  dynamics_hash : string;
  config_hash : string;
  plant_hash : string;
  combined : string;
}

let no_nn = "-"

let digest s = Digest.to_hex (Digest.string s)

let hex f = Printf.sprintf "%h" f

let ( let* ) r f = Result.bind r f

(* Canonical parameter rendering: sorted by name, bit-exact hex floats, one
   per line.  Two parameterizations hash equal iff every parameter is
   bit-identical. *)
let hash_params params =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) params in
  digest (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ hex v) sorted))

let plant_id ~name ~version ~params = { name; version; param_hash = hash_params params }

let hash_plant p = digest (p.name ^ "\n" ^ p.version ^ "\n" ^ p.param_hash)

(* The identity every pre-scenario entry point (legacy CLI flags, serve
   requests without a plant field) implicitly verified against. *)
let dubins_plant_id =
  plant_id ~name:"dubins_error" ~version:"1.0.0"
    ~params:[ ("v", 1.0); ("theta_r", 0.0) ]

let rect_str rect =
  String.concat " "
    (List.concat_map (fun (lo, hi) -> [ hex lo; hex hi ]) (Array.to_list rect))

let hash_network net = digest (Nn.to_string net)

let hash_dynamics (system : Engine.system) =
  let buf = Buffer.create 256 in
  Array.iter (fun v -> Buffer.add_string buf v; Buffer.add_char buf ' ') system.Engine.vars;
  Buffer.add_char buf '\n';
  Array.iter
    (fun e ->
      Buffer.add_string buf (Expr.to_string e);
      Buffer.add_char buf '\n')
    system.Engine.symbolic_field;
  digest (Buffer.contents buf)

(* Canonical rendering of every config field that can change the problem or
   the search semantics.  Execution-strategy fields (jobs, smt.jobs) are
   excluded on purpose: they cannot change the verdict, so they must not
   fragment the cache. *)
let hash_config (c : Engine.config) =
  let syn = c.Engine.synthesis and smt = c.Engine.smt in
  let opt_rect = function None -> "-" | Some r -> rect_str r in
  let lines =
    [
      "x0 " ^ rect_str c.Engine.x0_rect;
      "safe " ^ rect_str c.Engine.safe_rect;
      "gamma " ^ hex c.Engine.gamma;
      Printf.sprintf "n_seed %d" c.Engine.n_seed;
      "sim_dt " ^ hex c.Engine.sim_dt;
      Printf.sprintf "sim_steps %d" c.Engine.sim_steps;
      (match syn.Synthesis.mode with
      | Synthesis.Finite_difference -> "synth finite_difference"
      | Synthesis.Lie_derivative -> "synth lie_derivative");
      Printf.sprintf "subsample %d" syn.Synthesis.subsample;
      "min_rho " ^ hex syn.Synthesis.min_rho;
      "coeff_bound " ^ hex syn.Synthesis.coeff_bound;
      "min_margin " ^ hex syn.Synthesis.min_margin;
      "exclude " ^ opt_rect syn.Synthesis.exclude_rect;
      (match syn.Synthesis.separation_rects with
      | None -> "separation -"
      | Some (a, b) -> "separation " ^ rect_str a ^ " | " ^ rect_str b);
      (* Existing kinds must render byte-identically (cache compatibility);
         the polynomial kind extends the line with its degree. *)
      (match c.Engine.template_kind with
      | Template.Quadratic -> "template quadratic"
      | Template.Quadratic_linear -> "template quadratic_linear"
      | Template.Poly d -> Printf.sprintf "template poly %d" d);
      Printf.sprintf "max_candidate_iters %d" c.Engine.max_candidate_iters;
      Printf.sprintf "max_level_iters %d" c.Engine.max_level_iters;
      "delta " ^ hex smt.Solver.delta;
      Printf.sprintf "max_branches %d" smt.Solver.max_branches;
      (* The solver once had selectable search policies, hashed here.  It
         has one now; these constants pin store compatibility, so entries
         written before keep their fingerprints. *)
      "use_backward true";
      "branching smear";
      "use_mvf true";
    ]
  in
  digest (String.concat "\n" lines)

let combine fp =
  digest (fp.nn_hash ^ "\n" ^ fp.dynamics_hash ^ "\n" ^ fp.config_hash ^ "\n" ^ fp.plant_hash)

let fingerprint ?network ?(plant = dubins_plant_id) system config =
  let fp =
    {
      nn_hash = (match network with None -> no_nn | Some net -> hash_network net);
      dynamics_hash = hash_dynamics system;
      config_hash = hash_config config;
      plant_hash = hash_plant plant;
      combined = "";
    }
  in
  { fp with combined = combine fp }

type t = {
  fingerprint : fingerprint;
  plant : plant_id;
  template_kind : Template.kind;
  vars : string array;
  coeffs : float array;
  level : float;
  gamma : float;
  delta : float;
  x0_rect : (float * float) array;
  safe_rect : (float * float) array;
  cover : Solver.cover option;
  stats : (string * string) list;
  tool : string;
}

let tool_version = "safebarrier-1.0.0"

let make ~fingerprint ?(plant = dubins_plant_id) ~config ?cover ?(stats = [])
    (cert : Engine.certificate) =
  {
    fingerprint;
    plant;
    template_kind = Template.kind cert.Engine.template;
    vars = Template.vars cert.Engine.template;
    coeffs = Array.copy cert.Engine.coeffs;
    level = cert.Engine.level;
    gamma = config.Engine.gamma;
    delta = config.Engine.smt.Solver.delta;
    x0_rect = Array.copy config.Engine.x0_rect;
    safe_rect = Array.copy config.Engine.safe_rect;
    cover;
    stats;
    tool = tool_version;
  }

let certificate a =
  {
    Engine.template = Template.make a.template_kind a.vars;
    coeffs = Array.copy a.coeffs;
    level = a.level;
  }

(* The artifact's template line: space-separated so it stays a plain
   key/value line ("template poly 4"); the legacy kinds keep their exact
   historical rendering so existing v2 artifacts parse (and re-serialize)
   unchanged. *)
let kind_name = function
  | Template.Quadratic -> "quadratic"
  | Template.Quadratic_linear -> "quadratic_linear"
  | Template.Poly d -> Printf.sprintf "poly %d" d

let kind_of_name s =
  match s with
  | "quadratic" -> Ok Template.Quadratic
  | "quadratic_linear" -> Ok Template.Quadratic_linear
  | _ -> (
    match String.split_on_char ' ' s |> List.filter (fun t -> t <> "") with
    | [ "poly"; d_s ] -> (
      match int_of_string_opt d_s with
      | Some d when d >= 2 -> Ok (Template.Poly d)
      | Some d -> Error (Printf.sprintf "polynomial template degree %d must be >= 2" d)
      | None -> Error (Printf.sprintf "malformed polynomial template degree %S" d_s))
    | _ -> Error (Printf.sprintf "unknown template kind %S" s))

(* The v4 cover encoding: each node a zigzag LEB128 varint (one byte for
   every node kind and for splits of the first 16 variables), each point
   its 8 IEEE bytes little-endian, both in unpadded base64 so the artifact
   stays line-oriented text. *)
let b64_alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_value =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) b64_alphabet;
  t

let base64 b =
  let n = Bytes.length b in
  let out = Buffer.create (((n + 2) / 3 * 4) + 1) in
  let byte i = if i < n then Char.code (Bytes.get b i) else 0 in
  let i = ref 0 in
  while !i < n do
    let w = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) lor byte (!i + 2) in
    for k = 0 to min 3 (n - !i) do
      Buffer.add_char out b64_alphabet.[(w lsr (18 - (6 * k))) land 63]
    done;
    i := !i + 3
  done;
  Buffer.contents out

let unbase64 s =
  let len = String.length s in
  if len mod 4 = 1 then Error "malformed base64 length"
  else begin
    let b = Bytes.create ((len / 4 * 3) + max 0 ((len mod 4) - 1)) in
    let acc = ref 0 and bits = ref 0 and pos = ref 0 and bad = ref false in
    String.iter
      (fun c ->
        let v = b64_value.(Char.code c) in
        if v < 0 then bad := true
        else begin
          acc := ((!acc lsl 6) lor v) land 0xffffff;
          bits := !bits + 6;
          if !bits >= 8 then begin
            bits := !bits - 8;
            Bytes.set b !pos (Char.chr ((!acc lsr !bits) land 0xff));
            incr pos
          end
        end)
      s;
    if !bad then Error "malformed base64 character" else Ok b
  end

let pack_nodes nodes =
  let buf = Buffer.create (Array.length nodes + 8) in
  Array.iter
    (fun n ->
      let z = ref ((n lsl 1) lxor (n asr 62)) in
      while !z lsr 7 <> 0 do
        Buffer.add_char buf (Char.chr ((!z land 0x7f) lor 0x80));
        z := !z lsr 7
      done;
      Buffer.add_char buf (Char.chr !z))
    nodes;
  base64 (Buffer.to_bytes buf)

let unpack_nodes s =
  let* b = unbase64 s in
  let n = Bytes.length b in
  let out = ref [] and pos = ref 0 and err = ref None in
  while !err = None && !pos < n do
    let z = ref 0 and shift = ref 0 and more = ref true in
    while !more && !err = None do
      if !pos >= n || !shift > 56 then err := Some "malformed packed cover node"
      else begin
        let c = Char.code (Bytes.get b !pos) in
        incr pos;
        z := !z lor ((c land 0x7f) lsl !shift);
        shift := !shift + 7;
        more := c land 0x80 <> 0
      end
    done;
    out := ((!z lsr 1) lxor (- (!z land 1))) :: !out
  done;
  match !err with Some e -> Error e | None -> Ok (Array.of_list (List.rev !out))

let pack_points points =
  let b = Bytes.create (8 * Array.length points) in
  Array.iteri (fun i p -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float p)) points;
  base64 b

let unpack_points s =
  let* b = unbase64 s in
  if Bytes.length b mod 8 <> 0 then Error "malformed packed cover points"
  else Ok (Array.init (Bytes.length b / 8) (fun i -> Int64.float_of_bits (Bytes.get_int64_le b (8 * i))))

let to_string a =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "safebarrier-cert v4";
  line "tool %s" a.tool;
  line "plant %s %s %s" a.plant.name a.plant.version a.plant.param_hash;
  line "nn-hash %s" a.fingerprint.nn_hash;
  line "dynamics-hash %s" a.fingerprint.dynamics_hash;
  line "config-hash %s" a.fingerprint.config_hash;
  line "plant-hash %s" a.fingerprint.plant_hash;
  line "fingerprint %s" a.fingerprint.combined;
  line "template %s" (kind_name a.template_kind);
  line "vars %s" (String.concat " " (Array.to_list a.vars));
  line "coeffs %s" (String.concat " " (List.map hex (Array.to_list a.coeffs)));
  line "level %s" (hex a.level);
  line "gamma %s" (hex a.gamma);
  line "delta %s" (hex a.delta);
  line "x0-rect %s" (rect_str a.x0_rect);
  line "safe-rect %s" (rect_str a.safe_rect);
  Option.iter
    (fun (c : Solver.cover) ->
      line "cover-delta %s" (hex c.Solver.delta);
      Array.iter
        (fun (t : Solver.tree) ->
          line "cover-nodes %s" (pack_nodes t.Solver.nodes);
          line "cover-points %s" (pack_points t.Solver.points))
        c.Solver.trees)
    a.cover;
  List.iter (fun (k, v) -> line "stat %s %s" k v) a.stats;
  line "checksum %s" (digest (Buffer.contents buf));
  Buffer.contents buf

let parse_float s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "malformed float %S" s)

let parse_floats s =
  let toks = String.split_on_char ' ' s |> List.filter (fun t -> t <> "") in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | t :: rest ->
      let* f = parse_float t in
      go (f :: acc) rest
  in
  go [] toks

let parse_rect s =
  let* fs = parse_floats s in
  let n = Array.length fs in
  if n = 0 || n mod 2 <> 0 then Error "rectangle needs an even, positive number of bounds"
  else Ok (Array.init (n / 2) (fun i -> (fs.(2 * i), fs.((2 * i) + 1))))

let split_kv line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let of_string s =
  (* Validate the checksum over the raw text first: a corrupted file must be
     rejected before any field of it is interpreted. *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let rec split_last acc = function
    | [] -> Error "empty artifact"
    | [ last ] -> Ok (List.rev acc, last)
    | l :: rest -> split_last (l :: acc) rest
  in
  let* body, last = split_last [] lines in
  let* () =
    match split_kv last with
    | "checksum", h ->
      let content = String.concat "" (List.map (fun l -> l ^ "\n") body) in
      if String.equal (digest content) h then Ok ()
      else Error "checksum mismatch (artifact corrupted)"
    | _ -> Error "missing checksum line"
  in
  let* header, fields =
    match body with
    | [] -> Error "empty artifact body"
    | h :: rest -> Ok (h, List.map split_kv rest)
  in
  let* version =
    match split_kv header with
    | "safebarrier-cert", v when String.length v > 1 && v.[0] = 'v' -> (
      match int_of_string_opt (String.sub v 1 (String.length v - 1)) with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "malformed version %S" v))
    | _ -> Error "not a safebarrier certificate artifact"
  in
  let* () =
    if version >= 2 && version <= 4 then Ok ()
    else if version = 1 then
      Error "unsupported version 1 (pre-plant artifact format; re-export required)"
    else Error (Printf.sprintf "unsupported version %d" version)
  in
  let find key =
    match List.assoc_opt key fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" key)
  in
  let* tool = find "tool" in
  let* plant =
    let* plant_s = find "plant" in
    match String.split_on_char ' ' plant_s |> List.filter (fun t -> t <> "") with
    | [ name; version; param_hash ] -> Ok { name; version; param_hash }
    | _ -> Error (Printf.sprintf "malformed plant line %S (want name version param-hash)" plant_s)
  in
  let* nn_hash = find "nn-hash" in
  let* dynamics_hash = find "dynamics-hash" in
  let* config_hash = find "config-hash" in
  let* plant_hash = find "plant-hash" in
  let* combined = find "fingerprint" in
  let* kind_s = find "template" in
  let* template_kind = kind_of_name kind_s in
  let* vars_s = find "vars" in
  let vars =
    Array.of_list (String.split_on_char ' ' vars_s |> List.filter (fun t -> t <> ""))
  in
  let* () = if Array.length vars > 0 then Ok () else Error "no variables" in
  let* coeffs = Result.bind (find "coeffs") parse_floats in
  let* level = Result.bind (find "level") parse_float in
  let* gamma = Result.bind (find "gamma") parse_float in
  let* delta = Result.bind (find "delta") parse_float in
  let* x0_rect = Result.bind (find "x0-rect") parse_rect in
  let* safe_rect = Result.bind (find "safe-rect") parse_rect in
  let all key = List.filter_map (fun (k, v) -> if k = key then Some v else None) fields in
  (* A v3 cover was never refined: it is not read, and the entry is
     searched like a v2 one. *)
  let* cover =
    match List.assoc_opt "cover-delta" fields with
    | Some delta_s when version = 4 ->
      let* delta = parse_float delta_s in
      let nodes = all "cover-nodes" and points = all "cover-points" in
      if List.length nodes <> List.length points then
        Error "cover needs one points line per nodes line"
      else
        let* trees =
          List.fold_right2
            (fun n p acc ->
              let* acc = acc in
              let* nodes = unpack_nodes n in
              let* points = unpack_points p in
              Ok ({ Solver.nodes; points } :: acc))
            nodes points (Ok [])
        in
        Ok (Some { Solver.delta; trees = Array.of_list trees })
    | _ -> Ok None
  in
  let stats = List.map split_kv (all "stat") in
  Ok
    {
      fingerprint = { nn_hash; dynamics_hash; config_hash; plant_hash; combined };
      plant;
      template_kind;
      vars;
      coeffs;
      level;
      gamma;
      delta;
      x0_rect;
      safe_rect;
      cover;
      stats;
      tool;
    }
