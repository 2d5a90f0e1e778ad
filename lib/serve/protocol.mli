(** Wire protocol of the serve daemon: one JSON object per line, both
    directions, over a Unix-domain stream socket.

    {2 Request grammar}

    {v
    {"id": "<string>",                 required; echoed in the response
     "op": "verify" | "ping",         default "verify"
     -- verify fields (all optional):
     "network": "<path to .nn>",      controller file; else built-in
     "plant": "<registry name>",      plant to verify against (default the
                                      daemon's scenario, else dubins_error)
     "scenario": "<path to .scn>",    full scenario file; overrides plant
     "width": <int>,                  controller width from the plant's width
                                      family (default: the bundled controller;
                                      10 when no plant or scenario is named;
                                      ignored under a scenario file)
     "seed": <int>,                   PRNG seed (default 7)
     "gamma": <finite float>,         condition-(5) slack override
     "timeout": <finite float > 0>,   per-request budget, seconds
     "lie": <bool>, "linear_terms": <bool>, "no_cache": <bool>}
    v}

    Unknown fields are ignored (forward compatibility).

    {2 Response grammar}

    Every complete request line gets exactly one response line
    [{"id": ..., "status": ..., ...}].  [status] is the failure taxonomy:

    - ["ok"] — proved; carries [outcome]/[level]/[source]/[seconds]
    - ["failed"] — verification ran and was inconclusive ([reason])
    - ["timeout"] — the per-request or serve-level budget expired
    - ["error"] — the request crashed (exception, bad network file);
      isolated to this request, the daemon keeps serving
    - ["shed"] — the bounded queue was full; retry later
    - ["invalid"] — the line violated the protocol (not JSON, missing
      [id], oversized), or the request named an unknown plant/scenario or
      an arity-mismatched controller; handler-level rejections carry a
      [field] naming the offending request field and a [reason]

    Responses on a shared connection may interleave across requests —
    clients correlate by [id]. *)

type verify_params = {
  network_path : string option;
  plant : string option;  (** registry plant name; [None] = daemon default *)
  scenario_path : string option;  (** scenario file; takes precedence over [plant] *)
  width : int option;  (** [None] = the problem's own controller *)
  seed : int;
  gamma : float option;
  timeout : float option;  (** per-request budget; clamped to the serve deadline *)
  lie : bool;
  linear_terms : bool;
  no_cache : bool;
}

type op = Ping | Verify of verify_params

type request = { id : string; op : op }

type parse_error =
  | Oversized of int  (** line length in bytes *)
  | Not_json of string
  | Bad_request of { id : string option; reason : string }

val string_of_parse_error : parse_error -> string

val default_max_line_bytes : int
(** 65536 — generous for any legitimate request line. *)

val parse_line : ?max_bytes:int -> string -> (request, parse_error) result
(** Parse one complete request line (no trailing newline). *)

val verify_line :
  id:string ->
  ?network_path:string ->
  ?plant:string ->
  ?scenario_path:string ->
  ?width:int ->
  ?seed:int ->
  ?gamma:float ->
  ?timeout:float ->
  ?lie:bool ->
  ?linear_terms:bool ->
  ?no_cache:bool ->
  unit ->
  string
(** Render a verify request line (client side; no trailing newline). *)

val ping_line : id:string -> string

val response_line : id:string option -> status:string -> (string * Obs.Json.t) list -> string
(** One response line: [id] and [status] first, then the extra fields.
    No trailing newline. *)

val response_id : Obs.Json.t -> string option

val response_status : Obs.Json.t -> string option
