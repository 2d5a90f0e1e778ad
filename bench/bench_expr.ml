(* Expression-pipeline benchmark: tree-walking evaluation versus the
   hash-consed-DAG → compiled-tape pipeline, on the exported NN controller
   at Nh ∈ {10, 100, 1000}, emitting machine-readable BENCH_expr.json.

   Reported per width:
   - node counts: Expr tree size vs tape slots, for the bare controller
     atom and for atom + mean-value-form partials (where CSE across roots
     is the large win);
   - throughput: interval forward evaluations/s and HC4 revise calls/s,
     tree vs tape;
   - end-to-end: condition-(5) wall clock with the Tree_eval vs Tape_eval
     solver engines on the smoke-sized Dubins query (fixed certificate,
     unsat by construction).

   Usage: bench_expr [--smoke] [--widths 10,100,1000] [--out FILE]

   --smoke restricts to Nh=10 with short measurement windows so the whole
   run takes well under a second — the CI mode. *)

let parse_args () =
  let smoke = ref false
  and widths = ref [ 10; 100; 1000 ]
  and out = ref "BENCH_expr.json" in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      widths := [ 10 ];
      go rest
    | "--widths" :: spec :: rest ->
      widths := List.map int_of_string (String.split_on_char ',' spec);
      go rest
    | "--out" :: path :: rest ->
      out := path;
      go rest
    | arg :: _ ->
      Format.eprintf "bench_expr: unknown argument %s@." arg;
      exit 1
  in
  go (List.tl (Array.to_list Sys.argv));
  (!smoke, !widths, !out)

let verdict_string = function
  | Solver.Unsat -> "unsat"
  | Solver.Delta_sat _ -> "delta-sat"
  | Solver.Unknown -> "unknown"

(* Calls/s of [f], by doubling the batch until the window is long enough to
   trust the wall clock. *)
let throughput ~min_time f =
  ignore (f ());
  let rec calibrate n =
    let _, dt = Timing.time (fun () -> for _ = 1 to n do ignore (f ()) done) in
    if dt >= min_time then float_of_int n /. dt else calibrate (2 * n)
  in
  calibrate 1

type row = {
  nh : int;
  tree_nodes_atom : int;
  tape_nodes_atom : int;
  tree_nodes_with_partials : int;
  tape_nodes_with_partials : int;
  ieval_tree_per_s : float;
  ieval_tape_per_s : float;
  revise_tree_per_s : float;
  revise_tape_per_s : float;
  cond5_tree_wall_s : float;
  cond5_tape_wall_s : float;
  cond5_verdict_tree : string;
  cond5_verdict_tape : string;
}

let bench_width ~min_time nh =
  let net = Error_dynamics.controller_of_width nh in
  let e = Error_dynamics.symbolic_controller net in
  let vars = [| Error_dynamics.var_derr; Error_dynamics.var_theta_err |] in
  let index_of v = if String.equal v vars.(0) then 0 else 1 in
  let atom = { Formula.expr = e; rel = Formula.Le0 } in
  let partials = Array.map (fun v -> Expr.diff v e) vars in
  let tape_atom = Tape.compile ~index_of atom in
  let tape_full = Tape.compile ~index_of ~partials atom in
  let tree_nodes_atom = Expr.size e in
  let tree_nodes_with_partials =
    Array.fold_left (fun acc p -> acc + Expr.size p) tree_nodes_atom partials
  in
  (* Throughput on the controller expression over the usual domain box. *)
  let dd = Interval.make (-5.0) 5.0 and tt = Interval.make (-1.5) 1.5 in
  let lookup v = if String.equal v vars.(0) then dd else tt in
  let domains () = [| dd; tt |] in
  let ieval_tree_per_s = throughput ~min_time (fun () -> Expr.ieval lookup e) in
  let bufs = Tape.make_buffers tape_atom in
  let fixed = domains () in
  let ieval_tape_per_s = throughput ~min_time (fun () -> Tape.forward tape_atom bufs fixed) in
  let ctree = Hc4.compile ~index_of atom in
  let revise_tree_per_s =
    throughput ~min_time (fun () ->
        let d = domains () in
        try Hc4.revise d ctree with Hc4.Empty_box -> false)
  in
  let revise_tape_per_s =
    throughput ~min_time (fun () ->
        let d = domains () in
        try Tape.revise tape_atom bufs d with Tape.Empty_box -> false)
  in
  (* Condition (5) end to end, smoke-sized (the bench_par --smoke query):
     fixed quadratic certificate over a shrunk safe box — an unsat
     refutation, so branch-and-prune sweeps the whole box. *)
  let system = (Plant.close_exn Registry.dubins_error (Plant.Network net)).Plant.system in
  let config =
    { Engine.default_config with Engine.safe_rect = [| (-1.2, 1.2); (-0.6, 0.6) |] }
  in
  let template = Template.make Template.Quadratic system.Engine.vars in
  let cert = { Engine.template; coeffs = [| 1.0; 0.5; 2.0 |]; level = 0.0 } in
  let formula = Engine.condition5_formula system config cert in
  let bounds =
    Array.to_list
      (Array.mapi
         (fun i v -> (v, fst config.Engine.safe_rect.(i), snd config.Engine.safe_rect.(i)))
         system.Engine.vars)
  in
  let cond5 engine =
    let options = { Solver.default_options with Solver.delta = 1e-3; engine } in
    let (verdict, _), dt = Timing.time (fun () -> Solver.solve ~options ~bounds formula) in
    (dt, verdict_string verdict)
  in
  let cond5_tree_wall_s, cond5_verdict_tree = cond5 Solver.Tree_eval in
  let cond5_tape_wall_s, cond5_verdict_tape = cond5 Solver.Tape_eval in
  let row =
    {
      nh;
      tree_nodes_atom;
      tape_nodes_atom = Tape.atom_node_count tape_atom;
      tree_nodes_with_partials;
      tape_nodes_with_partials = Tape.node_count tape_full;
      ieval_tree_per_s;
      ieval_tape_per_s;
      revise_tree_per_s;
      revise_tape_per_s;
      cond5_tree_wall_s;
      cond5_tape_wall_s;
      cond5_verdict_tree;
      cond5_verdict_tape;
    }
  in
  Format.printf
    "Nh=%-5d nodes %d→%d (with partials %d→%d)  ieval %.3gx  revise %.3gx  cond5 %.3gx (%s)@."
    nh tree_nodes_atom row.tape_nodes_atom tree_nodes_with_partials
    row.tape_nodes_with_partials
    (ieval_tape_per_s /. ieval_tree_per_s)
    (revise_tape_per_s /. revise_tree_per_s)
    (cond5_tree_wall_s /. cond5_tape_wall_s)
    cond5_verdict_tape;
  row

let () =
  let smoke, widths, out = parse_args () in
  let min_time = if smoke then 0.02 else 0.2 in
  let rows = List.map (bench_width ~min_time) widths in
  (* Sanity: the engines must agree on every verdict, and hash-consing must
     never grow the program. *)
  List.iter
    (fun r ->
      if r.cond5_verdict_tree <> r.cond5_verdict_tape then begin
        Format.eprintf "bench_expr: engine verdicts diverge at Nh=%d (%s vs %s)@." r.nh
          r.cond5_verdict_tree r.cond5_verdict_tape;
        exit 1
      end;
      if r.tape_nodes_atom > r.tree_nodes_atom then begin
        Format.eprintf "bench_expr: tape atom larger than tree at Nh=%d@." r.nh;
        exit 1
      end)
    rows;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"expr_tape_pipeline\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf "  \"widths\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"nh\": %d, \"tree_nodes_atom\": %d, \"tape_nodes_atom\": %d, \
            \"tree_nodes_with_partials\": %d, \"tape_nodes_with_partials\": %d, \
            \"ieval_tree_per_s\": %.1f, \"ieval_tape_per_s\": %.1f, \"ieval_speedup\": %.3f, \
            \"revise_tree_per_s\": %.1f, \"revise_tape_per_s\": %.1f, \"revise_speedup\": %.3f, \
            \"cond5_tree_wall_s\": %.6f, \"cond5_tape_wall_s\": %.6f, \"cond5_speedup\": %.3f, \
            \"cond5_verdict\": \"%s\"}%s\n"
           r.nh r.tree_nodes_atom r.tape_nodes_atom r.tree_nodes_with_partials
           r.tape_nodes_with_partials r.ieval_tree_per_s r.ieval_tape_per_s
           (r.ieval_tape_per_s /. r.ieval_tree_per_s)
           r.revise_tree_per_s r.revise_tape_per_s
           (r.revise_tape_per_s /. r.revise_tree_per_s)
           r.cond5_tree_wall_s r.cond5_tape_wall_s
           (if r.cond5_tape_wall_s > 0.0 then r.cond5_tree_wall_s /. r.cond5_tape_wall_s else 1.0)
           r.cond5_verdict_tape
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Format.printf "wrote %s@." out
