(* Certificate artifact subsystem: serialization round-trip, store
   corruption detection, independent audit (including structured rejection
   of every single-field tampering), warm-start CEGIS, and the cache
   cold / hit / warm flows.  Everything runs against the paper's Dubins
   case study with small controllers so the whole file stays fast. *)

(* The paper's case study closed around [net]. *)
let dubins_system net =
  (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system

let temp_root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sb_cert_test_%d" (Unix.getpid ()))

let fresh_store =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat temp_root (string_of_int !counter)

let network = Error_dynamics.controller_of_width 10
let system = dubins_system network
let config = Engine.default_config

(* One proved certificate and its condition (5) cover, shared by the
   read-only tests. *)
let proved_report =
  lazy
    (let rng = Rng.create 7 in
     let report = Engine.verify ~config ~rng system in
     match report.Engine.outcome with
     | Engine.Proved cert -> (cert, report.Engine.cover)
     | Engine.Failed _ -> Alcotest.fail "baseline verify failed to prove")

let proved = lazy (fst (Lazy.force proved_report))

let artifact () =
  let fp = Artifact.fingerprint ~network system config in
  let cert, cover = Lazy.force proved_report in
  Artifact.make ~fingerprint:fp ~config ?cover ~stats:[ ("source", "test") ] cert

let check_verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Checker.string_of_verdict v))
    ( = )

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- artifact serialization ------------------------------------------- *)

let test_roundtrip () =
  let a = artifact () in
  match Artifact.of_string (Artifact.to_string a) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok b ->
    Alcotest.(check string) "fingerprint" a.Artifact.fingerprint.Artifact.combined
      b.Artifact.fingerprint.Artifact.combined;
    Alcotest.(check int) "coeff count" (Array.length a.Artifact.coeffs)
      (Array.length b.Artifact.coeffs);
    Array.iteri
      (fun i c ->
        Alcotest.(check int64) "coeff bits" (Int64.bits_of_float c)
          (Int64.bits_of_float b.Artifact.coeffs.(i)))
      a.Artifact.coeffs;
    Alcotest.(check int64) "level bits" (Int64.bits_of_float a.Artifact.level)
      (Int64.bits_of_float b.Artifact.level);
    Alcotest.(check (list (pair string string))) "stats" a.Artifact.stats b.Artifact.stats

let test_checksum_rejects_corruption () =
  let s = Artifact.to_string (artifact ()) in
  (* Flip one payload byte: every such corruption must fail the checksum. *)
  let i = String.index s 'v' in
  let corrupted = Bytes.of_string s in
  Bytes.set corrupted i 'w';
  (match Artifact.of_string (Bytes.to_string corrupted) with
  | Ok _ -> Alcotest.fail "corrupted artifact parsed"
  | Error e ->
    Alcotest.(check bool) "mentions checksum" true (contains ~sub:"checksum" e))

let test_truncation_rejected () =
  let s = Artifact.to_string (artifact ()) in
  match Artifact.of_string (String.sub s 0 (String.length s / 2)) with
  | Ok _ -> Alcotest.fail "truncated artifact parsed"
  | Error _ -> ()

let test_poly_roundtrip () =
  (* A polynomial-template artifact carries a parameterized
     [template poly <d>] line and must round-trip bit-exactly like the
     legacy kinds (whose lines are unchanged — cache compatibility). *)
  let base = artifact () in
  let template = Template.make (Template.Poly 4) base.Artifact.vars in
  let coeffs =
    Array.init (Template.dimension template) (fun i -> 0.125 *. float_of_int (i + 1))
  in
  let cert = { Engine.template; coeffs; level = 1.25 } in
  let fp = Artifact.fingerprint ~network system config in
  let a = Artifact.make ~fingerprint:fp ~config ~stats:[ ("source", "test") ] cert in
  let s = Artifact.to_string a in
  Alcotest.(check bool) "template poly 4 line present" true (contains ~sub:"template poly 4" s);
  match Artifact.of_string s with
  | Error e -> Alcotest.failf "poly round-trip parse failed: %s" e
  | Ok b ->
    (match b.Artifact.template_kind with
    | Template.Poly 4 -> ()
    | k -> Alcotest.failf "kind came back as %s" (Template.kind_to_string k));
    Alcotest.(check int) "coeff count" (Array.length coeffs) (Array.length b.Artifact.coeffs);
    Array.iteri
      (fun i c ->
        Alcotest.(check int64) "coeff bits" (Int64.bits_of_float c)
          (Int64.bits_of_float b.Artifact.coeffs.(i)))
      b.Artifact.coeffs

let test_poly_audit_certifies () =
  (* End-to-end over a genuinely non-ellipsoidal certificate: prove the
     registry's boxy scenario under Poly 4, export, re-load, audit. *)
  match Registry.find_scenario "poly-2d-boxy" with
  | None -> Alcotest.fail "registry scenario poly-2d-boxy missing"
  | Some entry -> (
    match Registry.elaborate entry.Registry.scenario with
    | Error msg -> Alcotest.failf "elaborate: %s" msg
    | Ok e -> (
      let sys = e.Scenario.closed.Plant.system in
      let cfg = e.Scenario.config in
      match (Engine.verify ~config:cfg ~rng:(Rng.create 7) sys).Engine.outcome with
      | Engine.Failed _ -> Alcotest.fail "poly-2d-boxy must prove under Poly 4"
      | Engine.Proved cert ->
        Alcotest.(check bool) "certificate is quartic" true
          (Template.kind cert.Engine.template = Template.Poly 4);
        let net = e.Scenario.closed.Plant.network in
        let fp = Artifact.fingerprint ?network:net ~plant:e.Scenario.closed.Plant.id sys cfg in
        let a =
          Artifact.make ~fingerprint:fp ~plant:e.Scenario.closed.Plant.id ~config:cfg cert
        in
        match Artifact.of_string (Artifact.to_string a) with
        | Error err -> Alcotest.failf "poly artifact reparse: %s" err
        | Ok reloaded ->
          let verdict, _ = Checker.audit ?network:net ~system:sys reloaded in
          Alcotest.check check_verdict "poly artifact certified" Checker.Certified verdict))

(* --- covers ------------------------------------------------------------- *)

let cover_of a =
  match a.Artifact.cover with
  | Some c -> c
  | None -> Alcotest.fail "an exported proof carries its condition (5) cover"

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* The cover a fresh export stores: [artifact ()]'s, refined. *)
let refined_artifact = lazy (Checker.refine ~system (artifact ()))

(* Serialization is bit-exact, the packed cover included. *)
let check_roundtrip (a : Artifact.t) =
  let s = Artifact.to_string a in
  Alcotest.(check bool) "v4 header" true (String.starts_with ~prefix:"safebarrier-cert v4\n" s);
  match Artifact.of_string s with
  | Error e -> Alcotest.failf "v4 parse failed: %s" e
  | Ok b ->
    Alcotest.(check string) "text round-trips byte for byte" s (Artifact.to_string b);
    let c = cover_of a and c' = cover_of b in
    Alcotest.(check bool) "cover delta bits" true
      (bits_equal [| c.Solver.delta |] [| c'.Solver.delta |]);
    Alcotest.(check int) "tree count" (Array.length c.Solver.trees) (Array.length c'.Solver.trees);
    Array.iteri
      (fun i t ->
        let t' = c'.Solver.trees.(i) in
        Alcotest.(check (array int)) "nodes" t.Solver.nodes t'.Solver.nodes;
        Alcotest.(check bool) "point bits" true (bits_equal t.Solver.points t'.Solver.points))
      c.Solver.trees

(* The audit of an entry without a cover proposes one for condition (5)
   and walks it: no stored cover dropped, every walked leaf closed. *)
let check_proposed (audit : Checker.stats) =
  Alcotest.(check int) "no stored cover dropped" 0 audit.Checker.dropped_covers;
  Alcotest.(check bool) "proposed covers walked" true
    (audit.Checker.replay_nodes > 0 && audit.Checker.forward_leaves + audit.Checker.mvf_leaves > 0)

(* [text] hand-sealed: each line replaced by the lines [f] maps it to, and
   the checksum recomputed. *)
let reseal f text =
  let body =
    String.concat ""
      (List.concat_map
         (fun l ->
           if l = "" || String.starts_with ~prefix:"checksum " l then []
           else List.map (fun l -> l ^ "\n") (f l))
         (String.split_on_char '\n' text))
  in
  body ^ "checksum " ^ Digest.to_hex (Digest.string body) ^ "\n"

(* [a] as a store written before v4 would hold it: a [version] header
   and, for v3, [a]'s cover in decimal text. *)
let legacy_text ~version (a : Artifact.t) =
  let cover_lines =
    match (version, a.Artifact.cover) with
    | 3, Some c ->
      Printf.sprintf "cover-delta %h" c.Solver.delta
      :: List.concat_map
           (fun (t : Solver.tree) ->
             [
               "cover-nodes "
               ^ String.concat " " (List.map string_of_int (Array.to_list t.Solver.nodes));
               "cover-points "
               ^ String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list t.Solver.points));
             ])
           (Array.to_list c.Solver.trees)
    | _ -> []
  in
  reseal
    (fun l ->
      if l = "safebarrier-cert v4" then [ Printf.sprintf "safebarrier-cert v%d" version ]
      else if String.starts_with ~prefix:"safe-rect " l then l :: cover_lines
      else [ l ])
    (Artifact.to_string { a with Artifact.cover = None })

(* A v4 artifact packs its refined cover: every node kind, midpoint splits
   (-4) included, and the split points survive bit for bit. *)
let test_v4_roundtrip () =
  let a = Lazy.force refined_artifact in
  let nodes =
    Array.concat (List.map (fun t -> t.Solver.nodes) (Array.to_list (cover_of a).Solver.trees))
  in
  List.iter
    (fun (name, pred) ->
      Alcotest.(check bool) ("refined cover has " ^ name) true (Array.exists pred nodes))
    [
      ("midpoint splits", fun n -> n = -4);
      ("recorded splits", fun n -> n >= 0 && n land 3 = 0);
      ("leaves", fun n -> n = 3);
    ];
  check_roundtrip a;
  (* A packed cover that does not decode is a parse error, not a cover:
     re-sealed with a character base64 lacks, the nodes line fails. *)
  let broken =
    reseal
      (fun l -> if String.starts_with ~prefix:"cover-nodes " l then [ l ^ "!" ] else [ l ])
      (Artifact.to_string a)
  in
  match Artifact.of_string broken with
  | Error e -> Alcotest.(check bool) ("rejected: " ^ e) true (contains ~sub:"base64" e)
  | Ok _ -> Alcotest.fail "a malformed packed cover must not parse"

(* Stores written before v4 keep serving hits: a v2 entry (no cover) and
   a v3 entry (a cover the search recorded, never refined) parse without
   a cover, and their audit proposes a cover for condition (5) and walks
   it. *)
let test_legacy_serves_hit ~version () =
  let root = fresh_store () in
  let a = artifact () in
  let dir = Store.save ~root ~network a in
  let text = legacy_text ~version a in
  Alcotest.(check bool)
    (Printf.sprintf "v%d header" version)
    true
    (String.starts_with ~prefix:(Printf.sprintf "safebarrier-cert v%d\n" version) text);
  Alcotest.(check bool) "cover lines" (version = 3) (contains ~sub:"\ncover-nodes " text);
  write_raw (Filename.concat dir Store.cert_file) text;
  (match Store.load_dir dir with
  | Ok e ->
    Alcotest.(check bool) "read without a cover" true (e.Store.artifact.Artifact.cover = None)
  | Error err -> Alcotest.failf "v%d entry: %s" version (Store.string_of_error err));
  let r = Cache.verify ~config ~network ~store:root ~rng:(Rng.create 8) system in
  match r.Cache.source with
  | Cache.Cache_hit { audit; _ } -> check_proposed audit
  | s -> Alcotest.failf "v%d entry should hit, got %s" version (Cache.string_of_source s)

(* A refinement runs under its caller's budget: a spent one stops it at
   its first node, and the artifact is left with no cover. *)
let test_refine_budget () =
  let a = artifact () in
  let pool = 1_000_000 in
  let drawn cancelled =
    let budget = Budget.make ~branches:pool ~cancel:(fun () -> cancelled) () in
    let b = Checker.refine ~budget ~system a in
    (b.Artifact.cover, pool - Option.get (Budget.remaining_branches budget))
  in
  let cover, nodes = drawn true in
  Alcotest.(check (pair bool int)) "spent: no cover after one node" (true, 1) (cover = None, nodes);
  let cover, nodes = drawn false in
  Alcotest.(check bool) (Printf.sprintf "live: refined over %d nodes" nodes) true
    (cover <> None && cover <> a.Artifact.cover && nodes > 1)

(* A cover the refinement cannot close — here one split at a point outside
   its box — is exported as none: the entry still hits, on a proposed
   cover. *)
let test_unrefinable_cover_dropped () =
  let a =
    {
      (artifact ()) with
      Artifact.cover =
        Some
          {
            Solver.delta = config.Engine.smt.Solver.delta;
            trees = [| { Solver.nodes = [| 0; 3; 3 |]; points = [| 1e9 |] } |];
          };
    }
  in
  let refined = Checker.refine ~system a in
  Alcotest.(check bool) "cover dropped" true (refined.Artifact.cover = None);
  let root = fresh_store () in
  let dir = Store.save ~root ~network refined in
  let text = In_channel.with_open_bin (Filename.concat dir Store.cert_file) In_channel.input_all in
  Alcotest.(check bool) "no cover- line" false (contains ~sub:"\ncover-" text);
  let r = Cache.verify ~config ~network ~store:root ~rng:(Rng.create 8) system in
  match r.Cache.source with
  | Cache.Cache_hit { audit; _ } -> check_proposed audit
  | s -> Alcotest.failf "an entry with no cover should hit, got %s" (Cache.string_of_source s)

let c_hc4 = Obs.Metrics.counter "solver.hc4_revise"

(* Every proving registry scenario, exported once, is a hit whose audit
   checks the stored refined cover: each leaf closes where it stands, so
   the check of condition (5) searches nowhere and calls no HC4.  The
   diverse audit, which walks with [Expr] trees, certifies it alike. *)
let test_scenarios_replay_cleanly () =
  List.iter
    (fun (entry : Registry.entry) ->
      if entry.Registry.scenario.Scenario.expectation = Some Scenario.Should_prove then begin
        let e =
          match Registry.elaborate entry.Registry.scenario with
          | Ok e -> e
          | Error msg -> Alcotest.failf "%s: %s" entry.Registry.name msg
        in
        let c = e.Scenario.closed and config = e.Scenario.config in
        let root = fresh_store () in
        let run seed =
          Cache.verify ~config ?network:c.Plant.network ~plant:c.Plant.id ~store:root
            ~rng:(Rng.create seed) c.Plant.system
        in
        let name = entry.Registry.name in
        let fp = (run 7).Cache.fingerprint in
        let check_audit what (audit : Checker.stats) =
          Alcotest.(check bool) (name ^ what ^ ": cover replayed") true
            (audit.Checker.replay_nodes > 0);
          Alcotest.(check int) (name ^ what ^ ": dropped covers") 0 audit.Checker.dropped_covers;
          Alcotest.(check bool) (name ^ what ^ ": leaves by kind") true
            (audit.Checker.forward_leaves + audit.Checker.mvf_leaves > 0)
        in
        (match (run 8).Cache.source with
        | Cache.Cache_hit { audit; _ } -> check_audit "" audit
        | s -> Alcotest.failf "%s: second run should hit, got %s" name (Cache.string_of_source s));
        let a =
          match Store.load ~root fp.Artifact.combined with
          | Ok entry -> entry.Store.artifact
          | Error err -> Alcotest.failf "%s: %s" name (Store.string_of_error err)
        in
        let sys = c.Plant.system in
        (match Checker.audit ~diverse:true ?network:c.Plant.network ~system:sys a with
        | Checker.Certified, audit -> check_audit " (diverse)" audit
        | Checker.Rejected r, _ ->
          Alcotest.failf "%s: diverse audit: %s" name (Checker.string_of_rejection r));
        let options = { Solver.default_options with Solver.delta = a.Artifact.delta } in
        let bounds = Cegis.rect_bounds sys.Engine.vars a.Artifact.safe_rect in
        let p =
          Solver.prepare ~options ~vars:(Array.to_list sys.Engine.vars)
            (Engine.condition5_formula sys config (Artifact.certificate a))
        in
        Obs.Metrics.enable ();
        let before = Obs.Metrics.value c_hc4 in
        let v, st = Solver.replay p ~bounds (cover_of a) in
        let hc4 = Obs.Metrics.value c_hc4 - before in
        Obs.Metrics.disable ();
        Alcotest.(check bool) (name ^ ": condition (5) unsat") true (v = Solver.Unsat);
        Alcotest.(check (list int))
          (name ^ ": solver.hc4_revise, boxes searched")
          [ 0; 0 ]
          [ hc4; st.Solver.branches ]
      end)
    (Registry.scenarios ())

(* A certificate re-audited with no cover, as a benchmark re-audits what
   [Engine.verify] returns: for every proving registry scenario at rng 1
   and 2, the audit proposes each condition's cover, refines and walks it,
   and certifies — or refutes condition (5) at a point where the
   certificate does decrease, a δ gray-zone answer (DESIGN.md §5k). *)
let test_coverless_reaudit () =
  List.iter
    (fun (entry : Registry.entry) ->
      if entry.Registry.scenario.Scenario.expectation = Some Scenario.Should_prove then begin
        let e =
          match Registry.elaborate { entry.Registry.scenario with Scenario.jobs = Some 1 } with
          | Ok e -> e
          | Error msg -> Alcotest.failf "%s: %s" entry.Registry.name msg
        in
        let c = e.Scenario.closed and config = e.Scenario.config in
        let sys = c.Plant.system in
        List.iter
          (fun seed ->
            let name = Printf.sprintf "%s rng %d" entry.Registry.name seed in
            let cert =
              match (Engine.verify ~config ~rng:(Rng.create seed) sys).Engine.outcome with
              | Engine.Proved cert -> cert
              | Engine.Failed r -> Alcotest.failf "%s: %s" name (Cegis.string_of_failure r)
            in
            let fingerprint =
              Artifact.fingerprint ?network:c.Plant.network ~plant:c.Plant.id sys config
            in
            let a = Artifact.make ~fingerprint ~plant:c.Plant.id ~config cert in
            let decreases_at w =
              let x = Array.map (fun v -> List.assoc v w) sys.Engine.vars in
              let f = sys.Engine.numeric_field 0.0 x in
              let basis = Template.basis_lie cert.Engine.template x f in
              let lie = ref 0.0 in
              Array.iteri (fun k b -> lie := !lie +. (cert.Engine.coeffs.(k) *. b)) basis;
              !lie < -.config.Engine.gamma
            in
            match Checker.audit ?network:c.Plant.network ~system:sys a with
            | Checker.Certified, audit -> check_proposed audit
            | Checker.Rejected (Checker.Condition_refuted { condition = 5; witness }), _
              when decreases_at witness ->
              ()
            | Checker.Rejected r, _ -> Alcotest.failf "%s: %s" name (Checker.string_of_rejection r))
          [ 1; 2 ]
      end)
    (Registry.scenarios ())

(* Does the certificate with [coeffs] genuinely violate condition (5)?
   A plain search finds a witness, and the exact Lie derivative there is
   >= -gamma. *)
let violates_condition5 coeffs =
  let cert = { (Lazy.force proved) with Engine.coeffs } in
  let ob =
    Engine.decrease_obligation ~name:"condition (5)"
      ~outside:(Formula.outside_rect (Cegis.rect_bounds system.Engine.vars config.Engine.x0_rect))
      ~gamma:config.Engine.gamma
      ~simulate:(fun x -> { Ode.times = [| 0.0 |]; states = [| x |] })
      system cert.Engine.template
  in
  match
    fst
      (Solver.solve ~options:config.Engine.smt
         ~bounds:(Cegis.rect_bounds system.Engine.vars config.Engine.safe_rect)
         (Engine.condition5_formula system config cert))
  with
  | Solver.Delta_sat w ->
    ob.Cegis.violates coeffs (Array.map (fun v -> List.assoc v w) system.Engine.vars)
  | Solver.Unsat | Solver.Unknown -> false

(* Perturbed coefficient vectors of the shared certificate that keep the
   form positive definite but genuinely break the decrease condition. *)
let refuted_coeffs =
  lazy
    (let base = (Lazy.force proved).Engine.coeffs in
     let candidates =
       List.concat_map
         (fun i ->
           List.map
             (fun f ->
               let c = Array.copy base in
               c.(i) <- c.(i) *. f;
               c)
             [ 0.2; 0.5; 2.0; 5.0 ])
         (List.init (Array.length base) Fun.id)
     in
     List.filter
       (fun coeffs ->
         Cholesky.is_positive_definite
           (Template.p_matrix (Lazy.force proved).Engine.template coeffs)
         && violates_condition5 coeffs)
       candidates)

type tamper =
  | Flip_kind
  | Point_on_bound
  | Point_outside
  | Wrong_var
  | Truncate
  | Append
  | Midpoint_to_leaf
  | Leaf_to_midpoint

let tamper_name = function
  | Flip_kind -> "flipped kind"
  | Point_on_bound -> "split point on the box"
  | Point_outside -> "split point outside the box"
  | Wrong_var -> "wrong variable"
  | Truncate -> "truncated tree"
  | Append -> "appended nodes"
  | Midpoint_to_leaf -> "midpoint split turned into a leaf"
  | Leaf_to_midpoint -> "leaf turned into a midpoint split"

(* Position just past the subtree that starts at [i]. *)
let subtree_end nodes i =
  let rec go j pending =
    if pending = 0 then j
    else go (j + 1) (pending - 1 + if nodes.(j) land 3 = 0 then 2 else 0)
  in
  go i 1

(* Apply one tamper to tree [ti mod n] at position [pos mod length]; the
   v4 tampers pick among the nodes of their kind. *)
let tamper_cover (c : Solver.cover) kind ti pos =
  let trees =
    Array.map
      (fun (t : Solver.tree) ->
        { Solver.nodes = Array.copy t.Solver.nodes; points = Array.copy t.Solver.points })
      c.Solver.trees
  in
  let ti = ti mod Array.length trees in
  let { Solver.nodes; points } = trees.(ti) in
  let n = Array.length nodes and np = Array.length points in
  let where pred = List.filter (fun j -> pred nodes.(j)) (List.init n Fun.id) in
  let nth l = List.nth l (pos mod List.length l) in
  let splits = where (fun node -> node >= 0 && node land 3 = 0) in
  let splice i j repl =
    trees.(ti) <-
      {
        Solver.nodes = Array.concat [ Array.sub nodes 0 i; repl; Array.sub nodes j (n - j) ];
        points;
      }
  in
  (match kind with
  | Flip_kind -> nodes.(pos mod n) <- nodes.(pos mod n) lxor (1 + (pos mod 3))
  | Point_on_bound when np > 0 -> points.(pos mod np) <- snd config.Engine.safe_rect.(0)
  | Point_outside when np > 0 -> points.(pos mod np) <- 1e9
  | Wrong_var when splits <> [] ->
    let j = nth splits in
    nodes.(j) <- nodes.(j) lxor 4
  | Truncate -> trees.(ti) <- { Solver.nodes = Array.sub nodes 0 (pos mod n); points }
  | Append -> trees.(ti) <- { Solver.nodes = Array.append nodes [| 1; 0; 2 |]; points }
  | Midpoint_to_leaf when where (fun node -> node = -4) <> [] ->
    let j = nth (where (fun node -> node = -4)) in
    splice j (subtree_end nodes j) [| 3 |]
  | Leaf_to_midpoint ->
    let j = nth (where (fun node -> node land 3 <> 0)) in
    splice j (j + 1) [| -4; 3; 3 |]
  | Point_on_bound | Point_outside | Wrong_var | Midpoint_to_leaf -> ());
  { c with Solver.trees }

let tampers =
  [|
    Flip_kind;
    Point_on_bound;
    Point_outside;
    Wrong_var;
    Truncate;
    Append;
    Midpoint_to_leaf;
    Leaf_to_midpoint;
  |]

(* Every tamper, of the search's cover or of its refinement. *)
let prop_tampered_cover_never_certifies =
  QCheck.Test.make ~name:"tampered cover never certifies a refuted certificate" ~count:60
    QCheck.(
      quad (int_range 0 (Array.length tampers - 1)) (int_range 0 1000) (int_range 0 100_000) bool)
    (fun (kind_i, pick, pos, v4) ->
      let kind = tampers.(kind_i) in
      let a = if v4 then Lazy.force refined_artifact else artifact () in
      let bad = Lazy.force refuted_coeffs in
      if bad = [] then QCheck.Test.fail_report "no perturbation refutes condition (5)";
      let coeffs = List.nth bad (pick mod List.length bad) in
      let cover = tamper_cover (cover_of a) kind (pick / 7) pos in
      (* The structural checks pass, so the verdict is condition (5)'s. *)
      match Checker.audit ~network ~system { a with Artifact.coeffs; cover = Some cover } with
      | Checker.Rejected (Checker.Condition_refuted { condition = 5; _ }), _ -> true
      | v, _ ->
        QCheck.Test.fail_reportf "%s %s cover: want condition (5) refuted, got %s"
          (tamper_name kind)
          (if v4 then "refined" else "searched")
          (Checker.string_of_verdict v)
      | exception e ->
        QCheck.Test.fail_reportf "%s cover raised %s" (tamper_name kind) (Printexc.to_string e))

(* --- fingerprints ----------------------------------------------------- *)

let test_fingerprint_sensitivity () =
  let fp = Artifact.fingerprint ~network system config in
  let other_net = Error_dynamics.controller_of_width 12 in
  let fp_net =
    Artifact.fingerprint ~network:other_net (dubins_system other_net) config
  in
  Alcotest.(check bool) "different network, different combined" true
    (fp.Artifact.combined <> fp_net.Artifact.combined);
  Alcotest.(check string) "different network, same config hash" fp.Artifact.config_hash
    fp_net.Artifact.config_hash;
  let fp_gamma =
    Artifact.fingerprint ~network system { config with Engine.gamma = config.Engine.gamma *. 2.0 }
  in
  Alcotest.(check bool) "different gamma, different config hash" true
    (fp.Artifact.config_hash <> fp_gamma.Artifact.config_hash)

let test_fingerprint_ignores_execution_strategy () =
  let fp = Artifact.fingerprint ~network system config in
  let fp_par =
    Artifact.fingerprint ~network system
      {
        config with
        Engine.jobs = 8;
        smt = { config.Engine.smt with Solver.jobs = 8 };
      }
  in
  Alcotest.(check string) "jobs do not change the fingerprint" fp.Artifact.combined
    fp_par.Artifact.combined

(* --- store ------------------------------------------------------------ *)

let test_store_roundtrip () =
  let root = fresh_store () in
  let a = artifact () in
  let dir = Store.save ~root ~network a in
  Alcotest.(check string) "entry dir is the content address"
    (Store.dir_of ~root a.Artifact.fingerprint.Artifact.combined)
    dir;
  (match Store.load ~root a.Artifact.fingerprint.Artifact.combined with
  | Error _ -> Alcotest.fail "saved entry failed to load"
  | Ok entry ->
    Alcotest.(check bool) "network stored" true (entry.Store.network <> None);
    Alcotest.(check string) "fingerprint" a.Artifact.fingerprint.Artifact.combined
      entry.Store.artifact.Artifact.fingerprint.Artifact.combined);
  Alcotest.(check (list string)) "list" [ a.Artifact.fingerprint.Artifact.combined ]
    (Store.list ~root);
  match Store.load ~root "deadbeef" with
  | Error Store.Missing -> ()
  | _ -> Alcotest.fail "missing entry should report Missing"

let test_store_detects_corruption () =
  let root = fresh_store () in
  let a = artifact () in
  let dir = Store.save ~root a in
  let path = Filename.concat dir Store.cert_file in
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.map (function '7' -> '8' | c -> c) contents);
  close_out oc;
  match Store.load ~root a.Artifact.fingerprint.Artifact.combined with
  | Error (Store.Corrupt _) -> ()
  | Error Store.Missing -> Alcotest.fail "corrupted entry reported Missing"
  | Ok _ -> Alcotest.fail "corrupted entry loaded"

(* --- checker ---------------------------------------------------------- *)

let audit ?network:net a =
  fst (Checker.audit ?network:net ~system a)

let test_audit_certifies_genuine () =
  Alcotest.check check_verdict "genuine artifact" Checker.Certified
    (audit ~network (artifact ()));
  (* Diversity: the same verdict when every cover is walked with [Expr]
     trees instead of the tape. *)
  Alcotest.check check_verdict "diverse walk" Checker.Certified
    (fst (Checker.audit ~diverse:true ~network ~system (artifact ())))

let test_audit_rejects_tampered_coeff () =
  let a = artifact () in
  let coeffs = Array.copy a.Artifact.coeffs in
  (* Scaling a diagonal coefficient up keeps the form positive definite
     (so the structural check passes) but lifts W above the level on X0. *)
  coeffs.(0) <- coeffs.(0) *. 10.0;
  match audit { a with Artifact.coeffs } with
  | Checker.Rejected (Checker.Condition_refuted _) -> ()
  | v -> Alcotest.failf "tampered coeff: expected refutation, got %s" (Checker.string_of_verdict v)

let test_audit_rejects_indefinite_form () =
  let a = artifact () in
  let coeffs = Array.copy a.Artifact.coeffs in
  coeffs.(0) <- -.coeffs.(0);
  match audit { a with Artifact.coeffs } with
  | Checker.Rejected (Checker.Ill_formed _) -> ()
  | v -> Alcotest.failf "indefinite form: expected Ill_formed, got %s" (Checker.string_of_verdict v)

let test_audit_rejects_inflated_level () =
  let a = artifact () in
  match audit { a with Artifact.level = a.Artifact.level *. 100.0 } with
  | Checker.Rejected (Checker.Condition_refuted { condition = 7; _ }) -> ()
  | v ->
    Alcotest.failf "inflated level: expected condition-7 refutation, got %s"
      (Checker.string_of_verdict v)

let test_audit_rejects_wrong_fingerprint () =
  let a = artifact () in
  let fp = { a.Artifact.fingerprint with Artifact.dynamics_hash = "0000" } in
  (match audit { a with Artifact.fingerprint = fp } with
  | Checker.Rejected (Checker.Fingerprint_mismatch { field = "dynamics"; _ }) -> ()
  | v ->
    Alcotest.failf "wrong dynamics hash: expected mismatch, got %s"
      (Checker.string_of_verdict v));
  (* The artifact binds a specific controller: auditing against a different
     one must fail the nn-hash comparison. *)
  match audit ~network:(Error_dynamics.controller_of_width 12) a with
  | Checker.Rejected (Checker.Fingerprint_mismatch { field = "network"; _ }) -> ()
  | v ->
    Alcotest.failf "wrong network: expected nn mismatch, got %s" (Checker.string_of_verdict v)

let test_audit_rejects_arity_mismatch () =
  let a = artifact () in
  match audit { a with Artifact.coeffs = [| 1.0 |] } with
  | Checker.Rejected (Checker.Ill_formed _) -> ()
  | v -> Alcotest.failf "arity mismatch: expected Ill_formed, got %s" (Checker.string_of_verdict v)

(* A negative recorded gamma turns condition (5)'s Unsat into a vacuous
   bound (lie < |gamma|), so the checker must refuse it structurally
   rather than "re-prove" a non-theorem. *)
let test_audit_rejects_negative_gamma () =
  let a = artifact () in
  (match audit ~network { a with Artifact.gamma = -.Float.abs a.Artifact.gamma -. 1.0 } with
  | Checker.Rejected (Checker.Ill_formed _) -> ()
  | v -> Alcotest.failf "negative gamma: expected Ill_formed, got %s" (Checker.string_of_verdict v));
  match audit ~network { a with Artifact.gamma = Float.nan } with
  | Checker.Rejected (Checker.Ill_formed _) -> ()
  | v -> Alcotest.failf "NaN gamma: expected Ill_formed, got %s" (Checker.string_of_verdict v)

let test_audit_rejects_nonpositive_delta () =
  let a = artifact () in
  List.iter
    (fun delta ->
      match audit ~network { a with Artifact.delta } with
      | Checker.Rejected (Checker.Ill_formed _) -> ()
      | v ->
        Alcotest.failf "delta %h: expected Ill_formed, got %s" delta
          (Checker.string_of_verdict v))
    [ 0.0; -1e-3; Float.infinity ]

(* --- warm start ------------------------------------------------------- *)

let test_warm_start_skips_lp () =
  let cert = Lazy.force proved in
  let report =
    Engine.verify ~config ~warm_start:cert.Engine.coeffs ~rng:(Rng.create 99) system
  in
  (match report.Engine.outcome with
  | Engine.Proved _ -> ()
  | Engine.Failed _ -> Alcotest.fail "warm start failed to prove");
  Alcotest.(check int) "LP skipped" 0 report.Engine.stats.Engine.lp_calls

let test_warm_start_bad_arity_ignored () =
  let report = Engine.verify ~config ~warm_start:[| 1.0 |] ~rng:(Rng.create 7) system in
  (match report.Engine.outcome with
  | Engine.Proved _ -> ()
  | Engine.Failed _ -> Alcotest.fail "verify with ignored warm start failed");
  Alcotest.(check bool) "LP ran" true (report.Engine.stats.Engine.lp_calls > 0)

(* --- cache ------------------------------------------------------------ *)

let test_cache_cold_then_hit () =
  let root = fresh_store () in
  let first = Cache.verify ~config ~network ~store:root ~rng:(Rng.create 7) system in
  (match first.Cache.source with
  | Cache.Cold -> ()
  | s -> Alcotest.failf "first run should be cold, got %s" (Cache.string_of_source s));
  Alcotest.(check bool) "first run exported" true (first.Cache.exported <> None);
  let second = Cache.verify ~config ~network ~store:root ~rng:(Rng.create 8) system in
  (match second.Cache.source with
  | Cache.Cache_hit { fingerprint; _ } ->
    Alcotest.(check string) "hit fingerprint" first.Cache.fingerprint.Artifact.combined
      fingerprint
  | s -> Alcotest.failf "second run should hit, got %s" (Cache.string_of_source s));
  Alcotest.(check bool) "hit not re-exported" true (second.Cache.exported = None);
  Alcotest.(check int) "hit runs no LP" 0 second.Cache.report.Engine.stats.Engine.lp_calls;
  (* use_cache:false forces a cold run but still exports. *)
  let forced =
    Cache.verify ~config ~use_cache:false ~network ~store:root ~rng:(Rng.create 9) system
  in
  match forced.Cache.source with
  | Cache.Cold -> ()
  | s -> Alcotest.failf "no-cache run should be cold, got %s" (Cache.string_of_source s)

let test_cache_warm_start_nearby () =
  let root = fresh_store () in
  let _ = Cache.verify ~config ~network ~store:root ~rng:(Rng.create 7) system in
  let other = Error_dynamics.controller_of_width 12 in
  let second =
    Cache.verify ~config ~network:other ~store:root ~rng:(Rng.create 7)
      (dubins_system other)
  in
  match second.Cache.source with
  | Cache.Warm_started { donor } ->
    Alcotest.(check bool) "donor is the stored entry" true (Store.list ~root |> List.mem donor);
    Alcotest.(check int) "warm start skipped the LP" 0
      second.Cache.report.Engine.stats.Engine.lp_calls
  | s -> Alcotest.failf "expected warm start, got %s" (Cache.string_of_source s)

let test_cache_rejects_tampered_hit () =
  let root = fresh_store () in
  let first = Cache.verify ~config ~network ~store:root ~rng:(Rng.create 7) system in
  let dir = Option.get first.Cache.exported in
  (* Rewrite the stored artifact with an inflated level (and a fresh
     checksum, so only the audit can catch it). *)
  let a = artifact () in
  let tampered = { a with Artifact.level = a.Artifact.level *. 100.0 } in
  let oc = open_out (Filename.concat dir Store.cert_file) in
  output_string oc (Artifact.to_string tampered);
  close_out oc;
  let second = Cache.verify ~config ~network ~store:root ~rng:(Rng.create 8) system in
  (match second.Cache.source with
  | Cache.Cache_hit _ -> Alcotest.fail "tampered entry must not be served as a hit"
  | Cache.Cold | Cache.Warm_started _ -> ());
  match second.Cache.report.Engine.outcome with
  | Engine.Proved _ -> ()
  | Engine.Failed _ -> Alcotest.fail "fallback run after rejected hit failed"

(* Semantic tampering with a valid checksum: the audit re-proves the
   conditions against the problem the artifact itself records, so an
   artifact rewritten for a weaker problem (shrunken rectangles, negated
   gamma) audits clean against *its own* problem.  The cache must bind the
   artifact to the live config and refuse the hit. *)
let test_cache_rejects_tampered_problem_fields () =
  let a = artifact () in
  let shrink rect = Array.map (fun (lo, hi) -> (lo /. 2.0, hi /. 2.0)) rect in
  List.iter
    (fun (name, tampered) ->
      let root = fresh_store () in
      (* The fingerprint field is untouched, so Store.save plants the
         tampered artifact exactly at the live problem's lookup address. *)
      let _dir = Store.save ~root ~network tampered in
      let result = Cache.verify ~config ~network ~store:root ~rng:(Rng.create 8) system in
      match result.Cache.source with
      | Cache.Cache_hit _ -> Alcotest.failf "%s must not be served as a hit" name
      | Cache.Cold | Cache.Warm_started _ -> ())
    [
      ("shrunken safe_rect", { a with Artifact.safe_rect = shrink a.Artifact.safe_rect });
      ("shrunken x0_rect", { a with Artifact.x0_rect = shrink a.Artifact.x0_rect });
      ("negated gamma", { a with Artifact.gamma = -.a.Artifact.gamma -. 1.0 });
      ("zeroed delta", { a with Artifact.delta = 0.0 });
    ]

(* --- cross-plant isolation -------------------------------------------- *)

(* A certificate proved under one plant must never be served — as an exact
   hit or a warm-start donor — for a different plant sharing the same
   store.  Two registry plants with bundled controllers exercise the
   plant_hash component of the fingerprint end to end. *)
let cache_run ?plant_params name ~store ~seed =
  let plant = Option.get (Registry.find_plant name) in
  let closed =
    Plant.close_exn ?params:plant_params plant plant.Plant.default_controller
  in
  let config = Plant.default_engine_config plant in
  Cache.verify ~config ?network:closed.Plant.network ~plant:closed.Plant.id ~store
    ~rng:(Rng.create seed) closed.Plant.system

let assert_cold name (r : Cache.result) =
  (match r.Cache.source with
  | Cache.Cold -> ()
  | s -> Alcotest.failf "%s: expected a cold run, got %s" name (Cache.string_of_source s));
  match r.Cache.report.Engine.outcome with
  | Engine.Proved _ -> Alcotest.(check bool) (name ^ " exported") true (r.Cache.exported <> None)
  | Engine.Failed _ -> Alcotest.failf "%s: cold run failed to prove" name

let test_cache_cross_plant_isolation () =
  let root = fresh_store () in
  assert_cold "duffing" (cache_run "duffing" ~store:root ~seed:7);
  (* Same store, different plant: must neither hit nor warm-start. *)
  assert_cold "poly_2d" (cache_run "poly_2d" ~store:root ~seed:7);
  (* Sanity: each plant still hits its own entry. *)
  List.iter
    (fun name ->
      match (cache_run name ~store:root ~seed:8).Cache.source with
      | Cache.Cache_hit _ -> ()
      | s -> Alcotest.failf "%s: expected own-entry hit, got %s" name (Cache.string_of_source s))
    [ "duffing"; "poly_2d" ]

(* Two parameterizations of the same plant share every config component
   (rectangles, gamma, template) yet must stay isolated: plant_hash alone
   keeps them apart. *)
let test_cache_parameterization_isolation () =
  let root = fresh_store () in
  assert_cold "duffing default damping" (cache_run "duffing" ~store:root ~seed:7);
  assert_cold "duffing damping=0.6"
    (cache_run "duffing" ~plant_params:[ ("damping", 0.6) ] ~store:root ~seed:7);
  match
    (cache_run "duffing" ~plant_params:[ ("damping", 0.6) ] ~store:root ~seed:8).Cache.source
  with
  | Cache.Cache_hit _ -> ()
  | s -> Alcotest.failf "reparameterized rerun should hit its own entry, got %s"
           (Cache.string_of_source s)

(* --- golden SMT-LIB dumps --------------------------------------------- *)

(* The queries [dump_smt2] writes are the external-audit interface (dReal
   scripts); their exact text is part of the artifact contract, so any
   change must be a conscious golden-file update. *)
let test_dump_smt2_golden () =
  let net = Error_dynamics.reference_controller in
  let sys = dubins_system net in
  let template = Template.make Template.Quadratic sys.Engine.vars in
  let cert = { Engine.template; coeffs = [| 1.0; 0.5; 2.0 |]; level = 1.0 } in
  let dir = Filename.concat temp_root "smt2" in
  let rec ensure d =
    if not (Sys.file_exists d) then begin
      ensure (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  ensure dir;
  let written = Engine.dump_smt2 sys cert ~dir in
  Alcotest.(check int) "three queries" 3 (List.length written);
  List.iter
    (fun path ->
      let golden = Filename.concat "golden" (Filename.basename path) in
      let read p =
        let ic = open_in_bin p in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      Alcotest.(check string) (Filename.basename path) (read golden) (read path))
    written

(* --- store fsck -------------------------------------------------------- *)

let issue_name = function
  | Store.Corrupt_entry _ -> "corrupt"
  | Store.Address_mismatch _ -> "address"
  | Store.Missing_network -> "missing-network"
  | Store.Network_mismatch _ -> "network-mismatch"
  | Store.Fingerprint_mismatch { field; _ } -> "fingerprint-" ^ field

(* A second artifact with a distinct fingerprint (different gamma), so a
   store can hold a healthy entry next to the corrupted ones. *)
let other_artifact () =
  let config2 = { config with Engine.gamma = config.Engine.gamma *. 2.0 } in
  let fp = Artifact.fingerprint ~network system config2 in
  Artifact.make ~fingerprint:fp ~config:config2 ~stats:[ ("source", "test") ]
    (Lazy.force proved)

(* Plant every corruption fsck knows about in one store and assert each is
   quarantined — invisible to list/load afterwards — while the healthy
   entry survives untouched. *)
let test_fsck_quarantines_each_corruption () =
  let root = fresh_store () in
  let a = artifact () in
  let entry_dir = Store.save ~root ~network a in
  let healthy = other_artifact () in
  let healthy_fp = healthy.Artifact.fingerprint.Artifact.combined in
  ignore (Store.save ~root ~network:(Error_dynamics.controller_of_width 10) healthy);
  let plant name f =
    let d = Filename.concat root name in
    Sys.mkdir d 0o755;
    f d
  in
  (* bad checksum: one flipped byte *)
  plant "00badsum" (fun d ->
      let b = Bytes.of_string (Artifact.to_string a) in
      Bytes.set b 0 (if Bytes.get b 0 = 'v' then 'V' else 'v');
      write_raw (Filename.concat d Store.cert_file) (Bytes.to_string b));
  (* unparseable artifact *)
  plant "01garbage" (fun d ->
      write_raw (Filename.concat d Store.cert_file) "not an artifact\n");
  (* valid artifact stored under the wrong content address *)
  plant "02wrongaddr" (fun d ->
      write_raw (Filename.concat d Store.cert_file) (Artifact.to_string a);
      write_raw (Filename.concat d Store.network_file) (Nn.to_string network));
  (* the real entry, with its recorded network.nn deleted *)
  Sys.remove (Filename.concat entry_dir Store.network_file);
  let report = Store.fsck ~quarantine:true ~root () in
  Alcotest.(check int) "scanned" 5 report.Store.scanned;
  Alcotest.(check int) "healthy" 1 report.Store.healthy;
  let findings =
    List.map
      (fun f -> (f.Store.fingerprint, issue_name f.Store.issue))
      report.Store.findings
  in
  Alcotest.(check (list (pair string string)))
    "each corruption classified"
    [
      ("00badsum", "corrupt");
      ("01garbage", "corrupt");
      ("02wrongaddr", "address");
      (a.Artifact.fingerprint.Artifact.combined, "missing-network");
    ]
    (List.sort compare findings);
  List.iter
    (fun f ->
      match f.Store.quarantined_to with
      | Some dest ->
        Alcotest.(check bool) ("moved " ^ f.Store.fingerprint) true (Sys.file_exists dest)
      | None -> Alcotest.fail ("not quarantined: " ^ f.Store.fingerprint))
    report.Store.findings;
  (* Quarantined entries are invisible to every lookup path. *)
  Alcotest.(check (list string)) "only the healthy entry listed" [ healthy_fp ]
    (Store.list ~root);
  (match Store.load ~root a.Artifact.fingerprint.Artifact.combined with
  | Error Store.Missing -> ()
  | _ -> Alcotest.fail "quarantined entry still loadable");
  (* A second scan over the cleaned store is quiet. *)
  let again = Store.fsck ~quarantine:true ~root () in
  Alcotest.(check int) "clean rescan" 0 (List.length again.Store.findings)

let test_fsck_network_mismatch () =
  let root = fresh_store () in
  let a = artifact () in
  let dir = Store.save ~root ~network a in
  (* Swap in a parseable but different controller. *)
  write_raw (Filename.concat dir Store.network_file)
    (Nn.to_string (Error_dynamics.controller_of_width 12));
  let report = Store.fsck ~quarantine:true ~root () in
  (match report.Store.findings with
  | [ { Store.issue = Store.Network_mismatch _; _ } ] -> ()
  | fs ->
    Alcotest.failf "expected one network-mismatch finding, got %s"
      (String.concat "," (List.map (fun f -> issue_name f.Store.issue) fs)));
  Alcotest.(check (list string)) "entry quarantined" [] (Store.list ~root)

(* Without ~quarantine fsck only reports: nothing moves, lookups still see
   the (bad) entry — the CLI's dry-run mode. *)
let test_fsck_report_only_leaves_store_untouched () =
  let root = fresh_store () in
  let a = artifact () in
  let dir = Store.save ~root ~network a in
  Sys.remove (Filename.concat dir Store.network_file);
  let report = Store.fsck ~root () in
  (match report.Store.findings with
  | [ { Store.quarantined_to = None; issue = Store.Missing_network; _ } ] -> ()
  | _ -> Alcotest.fail "expected one unquarantined missing-network finding");
  Alcotest.(check (list string)) "entry still listed"
    [ a.Artifact.fingerprint.Artifact.combined ]
    (Store.list ~root)

(* Temp-file + rename atomicity: a Store.save racing the scan — even of the
   very fingerprint being examined — must never be flagged, and stray
   in-progress temp files are invisible. *)
let test_fsck_ignores_concurrent_save () =
  let root = fresh_store () in
  let a = artifact () in
  let dir = Store.save ~root ~network a in
  (* A writer that died mid-save leaves a temp file behind. *)
  write_raw (Filename.concat dir "cert1a2b3c.tmp") "half-written";
  let resaved = ref false in
  let on_entry fp =
    if String.equal fp a.Artifact.fingerprint.Artifact.combined then begin
      (* Overwrite the entry mid-scan with a byte-different but valid
         artifact (fresh stats) at the same address. *)
      let a' =
        Artifact.make ~fingerprint:a.Artifact.fingerprint ~config
          ~stats:[ ("source", "rewrite") ] (Lazy.force proved)
      in
      ignore (Store.save ~root ~network a');
      resaved := true
    end
  in
  let report = Store.fsck ~quarantine:true ~on_entry ~root () in
  Alcotest.(check bool) "save raced the scan" true !resaved;
  Alcotest.(check int) "nothing flagged" 0 (List.length report.Store.findings);
  Alcotest.(check int) "entry healthy" 1 report.Store.healthy

(* An artifact whose plant identity line was rewritten (checksum refreshed,
   fingerprint untouched) is internally inconsistent: plant-hash no longer
   digests the plant line.  fsck must classify it as a plant fingerprint
   mismatch and quarantine it. *)
let test_fsck_flags_plant_tamper () =
  let root = fresh_store () in
  let a = artifact () in
  let tampered =
    {
      a with
      Artifact.plant =
        Artifact.plant_id ~name:"dubins_error" ~version:"1.0.0"
          ~params:[ ("v", 2.0); ("theta_r", 0.0) ];
    }
  in
  ignore (Store.save ~root ~network tampered);
  let report = Store.fsck ~quarantine:true ~root () in
  (match report.Store.findings with
  | [ { Store.issue = Store.Fingerprint_mismatch { field = "plant"; _ }; _ } ] -> ()
  | fs ->
    Alcotest.failf "expected one plant fingerprint-mismatch finding, got [%s]"
      (String.concat "," (List.map (fun f -> issue_name f.Store.issue) fs)));
  Alcotest.(check (list string)) "tampered entry quarantined" [] (Store.list ~root)

let () =
  Alcotest.run "cert"
    [
      ( "artifact",
        [
          Alcotest.test_case "round-trip is bit-exact" `Quick test_roundtrip;
          Alcotest.test_case "checksum rejects corruption" `Quick test_checksum_rejects_corruption;
          Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
          Alcotest.test_case "poly round-trip" `Quick test_poly_roundtrip;
          Alcotest.test_case "poly artifact certified" `Quick test_poly_audit_certifies;
          Alcotest.test_case "v4 round-trip is bit-exact" `Quick test_v4_roundtrip;
          Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
          Alcotest.test_case "fingerprint ignores execution strategy" `Quick
            test_fingerprint_ignores_execution_strategy;
        ] );
      ( "store",
        [
          Alcotest.test_case "save/load/list round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption detected on load" `Quick test_store_detects_corruption;
        ] );
      ( "checker",
        [
          Alcotest.test_case "genuine artifact certified" `Quick test_audit_certifies_genuine;
          Alcotest.test_case "tampered coeff refuted" `Quick test_audit_rejects_tampered_coeff;
          Alcotest.test_case "indefinite form ill-formed" `Quick test_audit_rejects_indefinite_form;
          Alcotest.test_case "inflated level refuted (cond 7)" `Quick
            test_audit_rejects_inflated_level;
          Alcotest.test_case "fingerprint mismatch rejected" `Quick
            test_audit_rejects_wrong_fingerprint;
          Alcotest.test_case "arity mismatch ill-formed" `Quick test_audit_rejects_arity_mismatch;
          Alcotest.test_case "negative gamma ill-formed" `Quick test_audit_rejects_negative_gamma;
          Alcotest.test_case "nonpositive delta ill-formed" `Quick
            test_audit_rejects_nonpositive_delta;
          QCheck_alcotest.to_alcotest prop_tampered_cover_never_certifies;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "stored coeffs skip the LP" `Quick test_warm_start_skips_lp;
          Alcotest.test_case "bad arity ignored" `Quick test_warm_start_bad_arity_ignored;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cold then hit" `Quick test_cache_cold_then_hit;
          Alcotest.test_case "nearby entry warm-starts" `Quick test_cache_warm_start_nearby;
          Alcotest.test_case "tampered hit falls back to a real run" `Quick
            test_cache_rejects_tampered_hit;
          Alcotest.test_case "tampered problem fields never hit" `Quick
            test_cache_rejects_tampered_problem_fields;
          Alcotest.test_case "cross-plant isolation" `Quick test_cache_cross_plant_isolation;
          Alcotest.test_case "parameterization isolation" `Quick
            test_cache_parameterization_isolation;
          Alcotest.test_case "v2 entry serves a hit" `Quick (test_legacy_serves_hit ~version:2);
          Alcotest.test_case "v3 entry serves a hit" `Quick (test_legacy_serves_hit ~version:3);
          Alcotest.test_case "refinement stops with its budget" `Quick test_refine_budget;
          Alcotest.test_case "unrefinable cover exported as none" `Quick
            test_unrefinable_cover_dropped;
          Alcotest.test_case "exported scenarios replay cleanly" `Quick
            test_scenarios_replay_cleanly;
          Alcotest.test_case "cover-less re-audits certify" `Quick test_coverless_reaudit;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "each corruption quarantined" `Quick
            test_fsck_quarantines_each_corruption;
          Alcotest.test_case "network mismatch quarantined" `Quick test_fsck_network_mismatch;
          Alcotest.test_case "report-only leaves store untouched" `Quick
            test_fsck_report_only_leaves_store_untouched;
          Alcotest.test_case "concurrent save not flagged" `Quick
            test_fsck_ignores_concurrent_save;
          Alcotest.test_case "plant tamper flagged" `Quick test_fsck_flags_plant_tamper;
        ] );
      ("golden", [ Alcotest.test_case "dump_smt2 snapshot" `Quick test_dump_smt2_golden ]);
    ]
