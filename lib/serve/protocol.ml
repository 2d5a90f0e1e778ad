type verify_params = {
  network_path : string option;
  plant : string option;
  scenario_path : string option;
  width : int option;
  seed : int;
  gamma : float option;
  timeout : float option;
  lie : bool;
  linear_terms : bool;
  no_cache : bool;
}

type op = Ping | Verify of verify_params

type request = { id : string; op : op }

type parse_error =
  | Oversized of int
  | Not_json of string
  | Bad_request of { id : string option; reason : string }

let string_of_parse_error = function
  | Oversized n -> Printf.sprintf "oversized line (%d bytes)" n
  | Not_json reason -> "not a JSON line: " ^ reason
  | Bad_request { reason; _ } -> "bad request: " ^ reason

let default_max_line_bytes = 65536

(* Field accessors over Obs.Json values; every type violation is a
   Bad_request naming the offending field, never an exception. *)
let json_id json =
  match Obs.Json.member "id" json with Some (Obs.Json.String s) -> Some s | _ -> None

let parse_line ?(max_bytes = default_max_line_bytes) line =
  if String.length line > max_bytes then Error (Oversized (String.length line))
  else
    match Obs.Json.of_string line with
    | Error reason -> Error (Not_json reason)
    | Ok (Obs.Json.Obj _ as json) -> (
      let id = json_id json in
      let bad reason = Error (Bad_request { id; reason }) in
      let ( let* ) r f = Result.bind r f in
      let opt_field name conv =
        match Obs.Json.member name json with
        | None | Some Obs.Json.Null -> Ok None
        | Some v -> (
          match conv v with
          | Some x -> Ok (Some x)
          | None -> Error (Bad_request { id; reason = "field " ^ name ^ " has the wrong type" }))
      in
      let as_string = function Obs.Json.String s -> Some s | _ -> None in
      let as_int = function Obs.Json.Int i -> Some i | _ -> None in
      let as_bool = function Obs.Json.Bool b -> Some b | _ -> None in
      let as_finite v =
        match Obs.Json.number v with Some f when Float.is_finite f -> Some f | _ -> None
      in
      match id with
      | None -> bad "missing string field id"
      | Some id -> (
        let* op = opt_field "op" as_string in
        match Option.value ~default:"verify" op with
        | "ping" -> Ok { id; op = Ping }
        | "verify" ->
          let* network_path = opt_field "network" as_string in
          let* plant = opt_field "plant" as_string in
          let* scenario_path = opt_field "scenario" as_string in
          let* width = opt_field "width" as_int in
          let* seed = opt_field "seed" as_int in
          let* gamma = opt_field "gamma" as_finite in
          let* timeout = opt_field "timeout" as_finite in
          let* () =
            match timeout with
            | Some t when t <= 0.0 -> bad "timeout must be positive"
            | _ -> Ok ()
          in
          let* lie = opt_field "lie" as_bool in
          let* linear_terms = opt_field "linear_terms" as_bool in
          let* no_cache = opt_field "no_cache" as_bool in
          let dflt d = Option.value ~default:d in
          Ok
            {
              id;
              op =
                Verify
                  {
                    network_path;
                    plant;
                    scenario_path;
                    width;
                    seed = dflt 7 seed;
                    gamma;
                    timeout;
                    lie = dflt false lie;
                    linear_terms = dflt false linear_terms;
                    no_cache = dflt false no_cache;
                  };
            }
        | op -> bad (Printf.sprintf "unknown op %S" op)))
    | Ok _ -> Error (Bad_request { id = None; reason = "request is not a JSON object" })

let line json = Obs.Json.to_string ~indent:false json

let verify_line ~id ?network_path ?plant ?scenario_path ?width ?seed ?gamma ?timeout ?lie
    ?linear_terms ?no_cache () =
  let opt name conv v = Option.map (fun x -> (name, conv x)) v in
  let fields =
    List.filter_map Fun.id
      [
        Some ("id", Obs.Json.String id);
        Some ("op", Obs.Json.String "verify");
        opt "network" (fun p -> Obs.Json.String p) network_path;
        opt "plant" (fun p -> Obs.Json.String p) plant;
        opt "scenario" (fun p -> Obs.Json.String p) scenario_path;
        opt "width" (fun w -> Obs.Json.Int w) width;
        opt "seed" (fun s -> Obs.Json.Int s) seed;
        opt "gamma" (fun g -> Obs.Json.Float g) gamma;
        opt "timeout" (fun t -> Obs.Json.Float t) timeout;
        opt "lie" (fun b -> Obs.Json.Bool b) lie;
        opt "linear_terms" (fun b -> Obs.Json.Bool b) linear_terms;
        opt "no_cache" (fun b -> Obs.Json.Bool b) no_cache;
      ]
  in
  line (Obs.Json.Obj fields)

let ping_line ~id = line (Obs.Json.Obj [ ("id", Obs.Json.String id); ("op", Obs.Json.String "ping") ])

let response_line ~id ~status fields =
  let id_json = match id with Some s -> Obs.Json.String s | None -> Obs.Json.Null in
  line (Obs.Json.Obj (("id", id_json) :: ("status", Obs.Json.String status) :: fields))

let response_id json = json_id json

let response_status json =
  match Obs.Json.member "status" json with Some (Obs.Json.String s) -> Some s | _ -> None
