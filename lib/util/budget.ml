type stop = Deadline | Branch_budget | Cancelled

type t = {
  deadline : float option; (* absolute, on the monotonic Timing.now scale *)
  pool : int Atomic.t option; (* shared across sub-budgets and domains *)
  cancel : unit -> bool;
}

let never_cancel () = false

let unlimited = { deadline = None; pool = None; cancel = never_cancel }

let make ?timeout ?branches ?(cancel = never_cancel) () =
  let deadline = Option.map (fun s -> Timing.now () +. s) timeout in
  { deadline; pool = Option.map Atomic.make branches; cancel }

let with_timeout s = make ~timeout:s ()

let sub_budget ?(fraction = 1.0) parent =
  let now = Timing.now () in
  let parent_remaining =
    match parent.deadline with Some d -> Float.max 0.0 (d -. now) | None -> infinity
  in
  let child_span = fraction *. parent_remaining in
  let child_deadline =
    if Float.is_finite child_span then Some (now +. child_span) else None
  in
  let deadline =
    match (parent.deadline, child_deadline) with
    | None, d | d, None -> d
    | Some a, Some b -> Some (Float.min a b)
  in
  { parent with deadline }

let child ?timeout ?branches parent =
  let from_timeout = Option.map (fun s -> Timing.now () +. s) timeout in
  let deadline =
    match (parent.deadline, from_timeout) with
    | None, d | d, None -> d
    | Some a, Some b -> Some (Float.min a b)
  in
  let pool =
    match branches with Some n -> Some (Atomic.make n) | None -> parent.pool
  in
  { deadline; pool; cancel = parent.cancel }

let deadline_stop t =
  match t.deadline with Some d when Timing.now () >= d -> Some Deadline | _ -> None

let check t =
  if t.cancel () then Some Cancelled
  else
    match t.pool with
    | Some p when Atomic.get p <= 0 -> Some Branch_budget
    | _ -> deadline_stop t

let expired t = check t <> None

let remaining t =
  match t.deadline with
  | None -> infinity
  | Some d -> Float.max 0.0 (d -. Timing.now ())

let remaining_branches t = Option.map (fun p -> Stdlib.max 0 (Atomic.get p)) t.pool

(* Decide from this call's own post-decrement value, never a re-read of
   the pool: a re-read could deny a call whose branches were granted when
   another domain drains the pool in between. *)
let consume_branches t n =
  let left = match t.pool with Some p -> Atomic.fetch_and_add p (-n) - n | None -> max_int in
  if t.cancel () then Some Cancelled
  else if left <= 0 then Some Branch_budget
  else deadline_stop t

type switch = bool Atomic.t

let switch () = Atomic.make false

let fire sw = Atomic.set sw true

let fired sw = Atomic.get sw

let with_switch sw t =
  let parent_cancel = t.cancel in
  { t with cancel = (fun () -> Atomic.get sw || parent_cancel ()) }

let string_of_stop = function
  | Deadline -> "deadline"
  | Branch_budget -> "branch budget"
  | Cancelled -> "cancelled"
