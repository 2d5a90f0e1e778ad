(* Shared helpers for the benchmark harness. *)

let pf = Format.printf

let hr title =
  pf "@.=== %s =============================================================@."
    title

(* The paper's case study closed around [net]. *)
let dubins_system net =
  (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system

let controller_for width =
  if width = 2 then Error_dynamics.reference_controller
  else Error_dynamics.controller_of_width width

(* Load the CMA-ES-trained controller shipped with the repo, looking both
   from the source tree and from _build. *)
let pretrained_controller () =
  let candidates = [ "data/trained_nh10.nn"; "../data/trained_nh10.nn"; "../../data/trained_nh10.nn" ] in
  let rec find = function
    | [] -> None
    | p :: rest -> if Sys.file_exists p then Some (Nn.load p) else find rest
  in
  find candidates
