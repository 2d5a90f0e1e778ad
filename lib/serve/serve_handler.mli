(** The real verification handler behind {!Daemon.run}: one request = one
    barrier-certificate verification of a registry plant (default: the
    Dubins case study), fronted by the certificate cache when a store is
    configured.

    Each request states its problem through {!problem}.

    Two failure planes, deliberately distinct:
    - {e rejections} — unknown plant/scenario, arity-mismatched controller,
      bad width: answered as [{"status":"invalid"}] with [field] naming the
      offending request field and a human-readable [reason] (see
      {!problem});
    - {e crashes} — missing network file, solver blow-ups: the handler
      raises and the daemon's crash isolation turns it into that request's
      [{"status":"error"}] response, keeping the error taxonomy in exactly
      one place. *)

val make : ?store:string -> ?scenario:string -> unit -> Daemon.handler
(** [make ~store ~scenario ()] verifies each request under its budget via
    [Cache.verify] (exact hits audited, nearby donors warm-started, fresh
    proofs exported, fingerprints carrying the plant identity); without
    [store] it runs the plain engine.  [scenario] is a scenario-file path
    elaborated once at construction (its controller kept from then on) —
    raises [Invalid_argument] if it does not elaborate.  A request naming
    no [network] or [scenario] file is elaborated once and kept (up to 64
    problems, keyed on every field but [seed], [timeout] and [no_cache]);
    one naming a file reads it on every request.  Response fields:
    [outcome]/[level] or [failure], [plant], [seconds], and — with a
    store — [source] ("cache_hit" | "warm_start" | "cold") plus [exported]
    for fresh proofs. *)

val problem :
  ?default:Scenario.elaborated ->
  Protocol.verify_params ->
  (Scenario.elaborated, string * string) result
(** A request's problem: its fields' {!Registry.document}, or — under its
    [scenario] file, else the daemon's [default] when it names no plant —
    those fields over the file (request over file; [width] ignored).  Its
    [network] is the controller, else [default]'s; a request changing
    nothing is [default] itself.  [Error (field, reason)] names [scenario]
    (file does not load), [plant] (unknown), else [network] if set, else
    [scenario] if named, else [width].  A bad network file raises. *)
