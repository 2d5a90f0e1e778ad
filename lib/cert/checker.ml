type rejection =
  | Fingerprint_mismatch of { field : string; expected : string; got : string }
  | Ill_formed of string
  | Condition_refuted of { condition : int; witness : (string * float) list }
  | Inconclusive of string

type verdict = Certified | Rejected of rejection

let string_of_rejection = function
  | Fingerprint_mismatch { field; expected; got } ->
    Printf.sprintf "%s fingerprint mismatch: artifact records %s, recomputed %s" field expected
      got
  | Ill_formed reason -> "ill-formed certificate: " ^ reason
  | Condition_refuted { condition; witness } ->
    Printf.sprintf "condition (%d) refuted at (%s)" condition
      (String.concat ", " (List.map (fun (v, x) -> Printf.sprintf "%s = %g" v x) witness))
  | Inconclusive what -> "audit inconclusive: " ^ what

let string_of_verdict = function
  | Certified -> "CERTIFIED"
  | Rejected r -> "REJECTED — " ^ string_of_rejection r

type stats = {
  cond5_time : float;
  cond67_time : float;
  cond6_time : float;
  cond7_time : float;
  branches : int;
  replay_nodes : int;
  dropped_covers : int;
  forward_leaves : int;
  mvf_leaves : int;
  total_time : float;
}

let exit_code = function Certified -> 0 | Rejected _ -> 1

(* Deliberately not Cegis.rect_bounds: the audit shares no engine code. *)
let rect_bounds vars rect =
  Array.to_list (Array.mapi (fun i v -> (v, fst rect.(i), snd rect.(i))) vars)

(* Condition (5) as the audit poses it, from the artifact alone: no
   decrease violation on D \ X0. *)
let condition5_query ~options ~(system : Engine.system) (a : Artifact.t) =
  let config =
    {
      Engine.default_config with
      Engine.x0_rect = a.Artifact.x0_rect;
      safe_rect = a.Artifact.safe_rect;
      gamma = a.Artifact.gamma;
      smt = options;
    }
  in
  ( rect_bounds system.Engine.vars a.Artifact.safe_rect,
    Engine.condition5_formula system config (Artifact.certificate a) )

let refine ?budget ~system (a : Artifact.t) =
  match a.Artifact.cover with
  | None -> a
  | Some cover ->
    let options = { Solver.default_options with Solver.delta = a.Artifact.delta } in
    let bounds, formula = condition5_query ~options ~system a in
    let vars = List.map (fun (v, _, _) -> v) bounds in
    let p = Solver.prepare ~options ~vars formula in
    { a with Artifact.cover = Solver.refine ?budget p ~bounds cover }

let c_replay_nodes = Obs.Metrics.counter "checker.replay_nodes"
let c_dropped_covers = Obs.Metrics.counter "checker.dropped_covers"
let c_forward_leaves = Obs.Metrics.counter "checker.forward_leaves"
let c_mvf_leaves = Obs.Metrics.counter "checker.mvf_leaves"

let audit ?(diverse = false) ?(budget = Budget.unlimited) ?network
    ~(system : Engine.system) (a : Artifact.t) =
  Obs.Trace.with_span "checker.audit" @@ fun () ->
  let t_start = Timing.now () in
  let acc5 = ref 0.0 and acc6 = ref 0.0 and acc7 = ref 0.0 and branches = ref 0 in
  let replay_nodes = ref 0 and dropped_covers = ref 0 in
  let forward_leaves = ref 0 and mvf_leaves = ref 0 in
  let finish verdict =
    ( verdict,
      {
        cond5_time = !acc5;
        cond67_time = !acc6 +. !acc7;
        cond6_time = !acc6;
        cond7_time = !acc7;
        branches = !branches;
        replay_nodes = !replay_nodes;
        dropped_covers = !dropped_covers;
        forward_leaves = !forward_leaves;
        mvf_leaves = !mvf_leaves;
        total_time = Timing.now () -. t_start;
      } )
  in
  let reject r = finish (Rejected r) in
  let options = { Solver.default_options with Solver.delta = a.Artifact.delta } in
  (* The audit certifies a condition only by a closed walk of a refined
     cover ([Solver.replay]): the stored one, when condition (5) has one
     and it closes, else one the audit proposes.  A proposal is a
     recording search at the artifact's δ, refined: the search can refute
     (a δ-sat witness) or propose, never certify, and a proposal that
     does not refine is inconclusive. *)
  let decide ?cover ~condition ~acc ~bounds formula k =
    let inconclusive what =
      Error (Inconclusive (Printf.sprintf "condition (%d)%s" condition what))
    in
    let outcome, dt =
      Timing.time (fun () ->
          Obs.Trace.with_span
            (Printf.sprintf "checker.condition%d" condition)
            (fun () ->
              let vars = List.map (fun (v, _, _) -> v) bounds in
              let p = Solver.prepare ~options ~vars formula in
              let walk cover =
                let verdict, st = Solver.replay ~diverse ~budget p ~bounds cover in
                branches := !branches + st.Solver.replay_nodes;
                replay_nodes := !replay_nodes + st.Solver.replay_nodes;
                forward_leaves := !forward_leaves + st.Solver.replay_forward;
                mvf_leaves := !mvf_leaves + st.Solver.replay_mvf;
                Obs.Metrics.add c_replay_nodes st.Solver.replay_nodes;
                Obs.Metrics.add c_forward_leaves st.Solver.replay_forward;
                Obs.Metrics.add c_mvf_leaves st.Solver.replay_mvf;
                match (verdict, st.Solver.interrupted) with
                | Solver.Unsat, _ -> `Closed
                | _, Some _ -> `Stopped
                | _, None -> `Open
              in
              let propose () =
                let verdict, st = Solver.solve_prepared ~budget ~record:true p ~bounds in
                branches := !branches + st.Solver.branches;
                match (verdict, st.Solver.cover) with
                | Solver.Delta_sat witness, _ -> Error (Condition_refuted { condition; witness })
                | Solver.Unsat, Some proposed -> (
                  match Option.map walk (Solver.refine ~budget p ~bounds proposed) with
                  | Some `Closed -> Ok ()
                  | Some (`Open | `Stopped) | None ->
                    inconclusive ": the proposed cover does not refine")
                | (Solver.Unsat | Solver.Unknown), _ -> inconclusive ""
              in
              match Option.map walk cover with
              | Some `Closed -> Ok ()
              | Some `Stopped -> inconclusive ""
              | Some `Open ->
                incr dropped_covers;
                Obs.Metrics.incr c_dropped_covers;
                propose ()
              | None -> propose ()))
    in
    acc := !acc +. dt;
    match outcome with Ok () -> k () | Error r -> reject r
  in
  (* 1. Structure: the artifact must speak the system's language. *)
  if
    Array.length a.Artifact.vars <> Array.length system.Engine.vars
    || not (Array.for_all2 String.equal a.Artifact.vars system.Engine.vars)
  then
    reject
      (Ill_formed
         (Printf.sprintf "variables [%s] do not match the system's [%s]"
            (String.concat " " (Array.to_list a.Artifact.vars))
            (String.concat " " (Array.to_list system.Engine.vars))))
  else if
    Array.length a.Artifact.x0_rect <> Array.length a.Artifact.vars
    || Array.length a.Artifact.safe_rect <> Array.length a.Artifact.vars
  then reject (Ill_formed "rectangle arity does not match the variables")
  else if not (Float.is_finite a.Artifact.gamma) || a.Artifact.gamma < 0.0 then
    (* Condition (5) is the unsatisfiability of [lie >= -gamma]; with a
       negative gamma, Unsat only bounds the Lie derivative below a
       positive value, which does not entail decrease. *)
    reject
      (Ill_formed
         (Printf.sprintf "gamma %h does not entail barrier decrease (must be finite and >= 0)"
            a.Artifact.gamma))
  else if not (Float.is_finite a.Artifact.delta) || a.Artifact.delta <= 0.0 then
    reject
      (Ill_formed
         (Printf.sprintf "delta %h is not a valid solver precision (must be finite and > 0)"
            a.Artifact.delta))
  else begin
    (* 2. Binding: recompute the content hashes the artifact claims. *)
    let dynamics = Artifact.hash_dynamics system in
    let plant = Artifact.hash_plant a.Artifact.plant in
    let combined = Artifact.combine a.Artifact.fingerprint in
    if not (String.equal dynamics a.Artifact.fingerprint.Artifact.dynamics_hash) then
      reject
        (Fingerprint_mismatch
           {
             field = "dynamics";
             expected = a.Artifact.fingerprint.Artifact.dynamics_hash;
             got = dynamics;
           })
    else if not (String.equal plant a.Artifact.fingerprint.Artifact.plant_hash) then
      (* The plant line and the plant-hash component must agree, otherwise a
         tampered artifact could claim one plant's identity while carrying
         another's hash. *)
      reject
        (Fingerprint_mismatch
           {
             field = "plant";
             expected = a.Artifact.fingerprint.Artifact.plant_hash;
             got = plant;
           })
    else if not (String.equal combined a.Artifact.fingerprint.Artifact.combined) then
      reject
        (Fingerprint_mismatch
           {
             field = "combined";
             expected = a.Artifact.fingerprint.Artifact.combined;
             got = combined;
           })
    else
      let nn_ok =
        match network with
        | Some net when not (String.equal a.Artifact.fingerprint.Artifact.nn_hash Artifact.no_nn)
          ->
          let got = Artifact.hash_network net in
          if String.equal got a.Artifact.fingerprint.Artifact.nn_hash then Ok ()
          else
            Error
              (Fingerprint_mismatch
                 { field = "network"; expected = a.Artifact.fingerprint.Artifact.nn_hash; got })
        | _ -> Ok ()
      in
      match nn_ok with
      | Error r -> reject r
      | Ok () ->
        let template = Template.make a.Artifact.template_kind a.Artifact.vars in
        if Array.length a.Artifact.coeffs <> Template.dimension template then
          reject
            (Ill_formed
               (Printf.sprintf "%d coefficients for a %d-dimensional template"
                  (Array.length a.Artifact.coeffs) (Template.dimension template)))
        else begin
          let cert = Artifact.certificate a in
          let structurally_sound =
            if Template.degree (Template.kind cert.Engine.template) <= 2 then
              Cholesky.is_positive_definite
                (Template.p_matrix cert.Engine.template cert.Engine.coeffs)
            else
              (* No quadratic-form requirement above degree 2: the sublevel
                 sets need not be ellipsoids, and condition (7) is decided
                 over the boundary shell instead. *)
              true
          in
          if not structurally_sound then
            (* Structural, not a solve: an indefinite quadratic part has
               unbounded sublevel sets, so no level can separate anything —
               rejected before any solver time is spent. *)
            reject
              (Ill_formed "quadratic form is not positive definite: sublevel sets are unbounded")
          else begin
            let bounds5, formula5 = condition5_query ~options ~system a in
            (* 3. Re-prove.  Condition (5): no decrease violation on D \ X0. *)
            decide ?cover:a.Artifact.cover ~condition:5 ~acc:acc5 ~bounds:bounds5 formula5
              (fun () ->
                (* Condition (6): X0 inside the ℓ-sublevel set. *)
                decide ~condition:6 ~acc:acc6
                  ~bounds:(rect_bounds a.Artifact.vars a.Artifact.x0_rect)
                  (Engine.condition6_formula cert)
                  (fun () ->
                    (* Condition (7): the sublevel set avoids the unsafe
                       complement.  Bounded query box shared with the
                       engine's bisection and [Engine.dump_smt2]: the
                       analytic ellipsoid enclosure for quadratic kinds,
                       the boundary shell for polynomial templates. *)
                    match
                      Level_search.condition7_query_rect cert.Engine.template
                        cert.Engine.coeffs ~level:cert.Engine.level
                        ~unsafe_rect:a.Artifact.safe_rect
                    with
                    | query_rect ->
                      decide ~condition:7 ~acc:acc7
                        ~bounds:(rect_bounds a.Artifact.vars query_rect)
                        (Formula.and_
                           [
                             Engine.condition7_formula cert;
                             Formula.outside_rect (rect_bounds a.Artifact.vars a.Artifact.safe_rect);
                           ])
                        (fun () -> finish Certified)
                    | exception Levelset.Not_definite ->
                      reject (Ill_formed "quadratic form is not positive definite")))
          end
        end
  end
