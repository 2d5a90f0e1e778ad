(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the experiment index):

     table1   Table 1   timing vs hidden-layer width; exits 1 unless every
                        run of every width proves
     fig4     Figure 4  CMA-ES training evolution
     fig5     Figure 5  phase portrait + barrier level set
     ablate   A1, A3    design-choice ablations
     ext      —         extensions: discrete time, Lyapunov, falsifier
     micro    —         Bechamel micro-benchmarks of the substrates
     gates    —         timing gates (stealing, cert, serve); exits 1
                        if any gate fails, --smoke is the CI size

   Usage: main.exe [table1|fig4|fig5|ablate|ext|micro|gates|all] [--seeds N] [--smoke]
   Default (no argument): all (every paper experiment, not the gates),
   with --seeds 3. *)

let parse_args () =
  let which = ref "all" and seeds = ref 3 and smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--seeds" :: n :: rest ->
      seeds := int_of_string n;
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | arg :: rest ->
      which := arg;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  (!which, !seeds, !smoke)

let () =
  let which, seeds, smoke = parse_args () in
  let table1 () = Bench_table1.run ~seeds () in
  let fig4 () = Bench_fig4.run ~seed:42 ~population:15 ~iterations:50 in
  let fig5 () = Bench_fig5.run ~seed:7 in
  let ablate () = Bench_ablate.run () in
  let ext () = Bench_ext.run () in
  let micro () = Bench_micro.run () in
  match which with
  | "table1" -> if not (table1 ()) then exit 1
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "ablate" -> ablate ()
  | "ext" -> ext ()
  | "micro" -> micro ()
  | "gates" -> if not (Bench_gates.run ~smoke) then exit 1
  | "all" ->
    let proved = table1 () in
    fig4 ();
    fig5 ();
    ablate ();
    ext ();
    micro ();
    if not proved then exit 1
  | other ->
    Format.eprintf "unknown bench %s (expected table1|fig4|fig5|ablate|ext|micro|gates|all)@."
      other;
    exit 1
