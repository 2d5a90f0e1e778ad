(* Flat SSA tapes compiled from hash-consed DAGs (see tape.mli).

   Slot invariants, relied on throughout:
   - operand slots of instruction [k] are strictly below [k] (Dag ids are
     topological), so one left-to-right pass evaluates and one
     right-to-left pass contracts;
   - slots [0, hc4_limit) are exactly the distinct subterms of the atom,
     because the atom is interned into the pool before the partials;
   - constant slots are prefilled in [make_buffers] and never written by
     the sweeps (backward requirements live in separate arrays), so a
     buffers value stays valid across any number of evaluations.

   Empty intervals are represented in the float buffers as any pair with
   [not (lo <= hi)] — the canonical {+inf, -inf}, but also pairs with a NaN
   endpoint produced by kernels like [inf + -inf].  Every consumer tests
   non-emptiness in the NaN-safe [lo <= hi] form, which makes the two
   representations indistinguishable, exactly as in [Interval.is_empty]. *)

type instr =
  | IConst of float
  | IVar of int
  | IAdd of int * int
  | ISub of int * int
  | IMul of int * int
  | IDiv of int * int
  | INeg of int
  | IPow of int * int
  | ISin of int
  | ICos of int
  | IAtan of int
  | IExp of int
  | ILog of int
  | ITanh of int
  | ISigmoid of int
  | ISqrt of int
  | IAbs of int

type t = {
  instrs : instr array;
  atom_root : int;
  rel : Formula.rel;
  partial_roots : int array;
  hc4_limit : int;
}

(* All-float records: the arrays are unboxed float arrays, so evaluation
   allocates nothing on the fast paths. *)
type buffers = {
  flo : float array;  (* forward enclosure, all slots *)
  fhi : float array;
  rlo : float array;  (* backward requirement accumulator, atom slots only *)
  rhi : float array;
  vals : float array; (* point evaluation, all slots *)
}

exception Empty_box

let compile_counter = Atomic.make 0

let compile_count () = Atomic.get compile_counter

let c_compiles = Obs.Metrics.counter "tape.compile"

let compile ~index_of ?(partials = [||]) (atom : Formula.atom) =
  Atomic.incr compile_counter;
  Obs.Metrics.incr c_compiles;
  let pool = Dag.create () in
  let atom_root = Dag.intern pool atom.Formula.expr in
  let hc4_limit = Dag.node_count pool in
  let partial_roots = Array.map (Dag.intern pool) partials in
  let instrs =
    Array.map
      (function
        | Dag.Const c -> IConst c
        | Dag.Var v -> IVar (index_of v)
        | Dag.Add (a, b) -> IAdd (a, b)
        | Dag.Sub (a, b) -> ISub (a, b)
        | Dag.Mul (a, b) -> IMul (a, b)
        | Dag.Div (a, b) -> IDiv (a, b)
        | Dag.Neg a -> INeg a
        | Dag.Pow (a, n) -> IPow (a, n)
        | Dag.Sin a -> ISin a
        | Dag.Cos a -> ICos a
        | Dag.Atan a -> IAtan a
        | Dag.Exp a -> IExp a
        | Dag.Log a -> ILog a
        | Dag.Tanh a -> ITanh a
        | Dag.Sigmoid a -> ISigmoid a
        | Dag.Sqrt a -> ISqrt a
        | Dag.Abs a -> IAbs a)
      (Dag.ops pool)
  in
  { instrs; atom_root; rel = atom.Formula.rel; partial_roots; hc4_limit }

let node_count t = Array.length t.instrs

let atom_node_count t = t.hc4_limit

let n_partials t = Array.length t.partial_roots

let make_buffers t =
  let n = Array.length t.instrs in
  let flo = Array.make n infinity
  and fhi = Array.make n neg_infinity
  and rlo = Array.make t.hc4_limit neg_infinity
  and rhi = Array.make t.hc4_limit infinity
  and vals = Array.make n 0.0 in
  Array.iteri
    (fun k ins ->
      match ins with
      | IConst c ->
        flo.(k) <- c;
        fhi.(k) <- c;
        vals.(k) <- c
      | _ -> ())
    t.instrs;
  { flo; fhi; rlo; rhi; vals }

(* Rounding kernels, bit-for-bit the ones in Interval (see the comment
   there for the multiply-add successor formula and its exact range): the
   tape's forward enclosures must equal the tree evaluator's (the qcheck
   suite compares them), so these are transcriptions, not
   reimplementations.  The tape keeps its own copy because dune's dev
   profile builds lib/interval with -opaque, so a call into Interval is
   never inlined and boxes its float argument and result.  test_interval
   and test_tape both check their copy against the guarded
   Float.pred/Float.succ bit for bit over every binary exponent. *)

let phi = 0x1.0000000000001p-53

let[@inline] down x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= max_float then x -. (phi *. a)
  else if x = neg_infinity || Float.is_nan x then x
  else Float.pred x

let[@inline] up x =
  let a = Float.abs x in
  if a >= 0x1p-969 && a <= max_float then x +. (phi *. a)
  else if x = infinity || Float.is_nan x then x
  else Float.succ x

(* Float.min and Float.max without their [caml_signbit] call: plain
   comparisons decide every ordered pair, and the two cases they cannot
   (a ±0 pair, a NaN) fall to an addition, which gives max (+0, -0) = +0
   and, negated around it, min (+0, -0) = -0, and a NaN for a NaN — the
   stdlib's result bit for bit, up to which NaN.  An equal nonzero pair
   has one bit pattern, returned as is. *)

let[@inline] fmax (x : float) y =
  if x > y then x else if y > x then y else if x = y && x <> 0.0 then x else x +. y

let[@inline] fmin (x : float) y =
  if x < y then x else if y < x then y else if x = y && x <> 0.0 then x else -.((-.x) +. (-.y))

(* Inlined like the kernels above: a call to a float function that is
   not inlined boxes its argument and its result, which on a tanh or a
   product node is an allocation per bound. *)
let[@inline] wide_down x = down (down (down x))

let[@inline] wide_up x = up (up (up x))

let[@inline] bound_mul x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

let sigmoid_f x = 1.0 /. (1.0 +. Stdlib.exp (-.x))

let half_pi = Float.pi /. 2.0

(* Bridging to the Interval module for the rare, branch-heavy operations;
   the [lo <= hi] guard keeps NaN endpoints away from Interval.make. *)
let iv flo fhi a =
  if flo.(a) <= fhi.(a) then Interval.make flo.(a) fhi.(a) else Interval.empty

let set_empty flo fhi k =
  flo.(k) <- infinity;
  fhi.(k) <- neg_infinity

let set flo fhi k v =
  if Interval.is_empty v then set_empty flo fhi k
  else begin
    flo.(k) <- Interval.lo v;
    fhi.(k) <- Interval.hi v
  end

let forward_range t b domains first limit =
  let flo = b.flo and fhi = b.fhi in
  let instrs = t.instrs in
  for k = first to limit - 1 do
    match Array.unsafe_get instrs k with
    | IConst _ -> () (* prefilled *)
    | IVar j ->
      let d = domains.(j) in
      if Interval.is_empty d then set_empty flo fhi k
      else begin
        flo.(k) <- Interval.lo d;
        fhi.(k) <- Interval.hi d
      end
    | IAdd (a, c) ->
      if flo.(a) <= fhi.(a) && flo.(c) <= fhi.(c) then begin
        flo.(k) <- down (flo.(a) +. flo.(c));
        fhi.(k) <- up (fhi.(a) +. fhi.(c))
      end
      else set_empty flo fhi k
    | ISub (a, c) ->
      if flo.(a) <= fhi.(a) && flo.(c) <= fhi.(c) then begin
        flo.(k) <- down (flo.(a) -. fhi.(c));
        fhi.(k) <- up (fhi.(a) -. flo.(c))
      end
      else set_empty flo fhi k
    | IMul (a, c) ->
      if flo.(a) <= fhi.(a) && flo.(c) <= fhi.(c) then begin
        let p1 = bound_mul flo.(a) flo.(c)
        and p2 = bound_mul flo.(a) fhi.(c)
        and p3 = bound_mul fhi.(a) flo.(c)
        and p4 = bound_mul fhi.(a) fhi.(c) in
        flo.(k) <- down (fmin (fmin p1 p2) (fmin p3 p4));
        fhi.(k) <- up (fmax (fmax p1 p2) (fmax p3 p4))
      end
      else set_empty flo fhi k
    | INeg a ->
      if flo.(a) <= fhi.(a) then begin
        let l = flo.(a) in
        flo.(k) <- -.fhi.(a);
        fhi.(k) <- -.l
      end
      else set_empty flo fhi k
    | IAbs a ->
      if flo.(a) <= fhi.(a) then begin
        let l = flo.(a) and h = fhi.(a) in
        if l >= 0.0 then begin
          flo.(k) <- l;
          fhi.(k) <- h
        end
        else if h <= 0.0 then begin
          flo.(k) <- -.h;
          fhi.(k) <- -.l
        end
        else begin
          flo.(k) <- 0.0;
          fhi.(k) <- fmax (-.l) h
        end
      end
      else set_empty flo fhi k
    | ITanh a ->
      if flo.(a) <= fhi.(a) then begin
        flo.(k) <- fmax (-1.0) (wide_down (Stdlib.tanh flo.(a)));
        fhi.(k) <- fmin 1.0 (wide_up (Stdlib.tanh fhi.(a)))
      end
      else set_empty flo fhi k
    | ISigmoid a ->
      if flo.(a) <= fhi.(a) then begin
        flo.(k) <- fmax 0.0 (wide_down (sigmoid_f flo.(a)));
        fhi.(k) <- fmin 1.0 (wide_up (sigmoid_f fhi.(a)))
      end
      else set_empty flo fhi k
    | IExp a ->
      if flo.(a) <= fhi.(a) then begin
        flo.(k) <- fmax 0.0 (wide_down (Stdlib.exp flo.(a)));
        fhi.(k) <- (if fhi.(a) = neg_infinity then 0.0 else wide_up (Stdlib.exp fhi.(a)))
      end
      else set_empty flo fhi k
    | IAtan a ->
      if flo.(a) <= fhi.(a) then begin
        flo.(k) <- fmax (-.half_pi) (wide_down (Stdlib.atan flo.(a)));
        fhi.(k) <- fmin half_pi (wide_up (Stdlib.atan fhi.(a)))
      end
      else set_empty flo fhi k
    | IDiv (a, c) -> set flo fhi k (Interval.div (iv flo fhi a) (iv flo fhi c))
    | IPow (a, n) -> set flo fhi k (Interval.pow (iv flo fhi a) n)
    | ISin a -> set flo fhi k (Interval.sin (iv flo fhi a))
    | ICos a -> set flo fhi k (Interval.cos (iv flo fhi a))
    | ILog a -> set flo fhi k (Interval.log (iv flo fhi a))
    | ISqrt a -> set flo fhi k (Interval.sqrt (iv flo fhi a))
  done

let atom_ival t b = iv b.flo b.fhi t.atom_root

let forward t b domains =
  forward_range t b domains 0 t.hc4_limit;
  atom_ival t b

let forward_partials t b domains = forward_range t b domains t.hc4_limit (Array.length t.instrs)

let forward_all t b domains =
  forward_range t b domains 0 (Array.length t.instrs);
  atom_ival t b

let partial_ival t b i = iv b.flo b.fhi t.partial_roots.(i)

let eval_point t b x =
  let v = b.vals in
  let instrs = t.instrs in
  for k = 0 to t.hc4_limit - 1 do
    match Array.unsafe_get instrs k with
    | IConst _ -> () (* prefilled *)
    | IVar j -> v.(k) <- x.(j)
    | IAdd (a, c) -> v.(k) <- v.(a) +. v.(c)
    | ISub (a, c) -> v.(k) <- v.(a) -. v.(c)
    | IMul (a, c) -> v.(k) <- v.(a) *. v.(c)
    | IDiv (a, c) -> v.(k) <- v.(a) /. v.(c)
    | INeg a -> v.(k) <- -.v.(a)
    | IPow (a, n) -> v.(k) <- v.(a) ** float_of_int n
    | ISin a -> v.(k) <- Stdlib.sin v.(a)
    | ICos a -> v.(k) <- Stdlib.cos v.(a)
    | IAtan a -> v.(k) <- Stdlib.atan v.(a)
    | IExp a -> v.(k) <- Stdlib.exp v.(a)
    | ILog a -> v.(k) <- Stdlib.log v.(a)
    | ITanh a -> v.(k) <- Stdlib.tanh v.(a)
    | ISigmoid a -> v.(k) <- sigmoid_f v.(a)
    | ISqrt a -> v.(k) <- Stdlib.sqrt v.(a)
    | IAbs a -> v.(k) <- Float.abs v.(a)
  done;
  v.(t.atom_root)

(* Backward pass helpers.  A "requirement" pushed to slot [c] narrows the
   accumulator [rlo.(c), rhi.(c)]; when slot [c] is processed (all parents
   done), its narrowed value is the meet of its forward enclosure with that
   accumulator.  An empty projection means no value of the child satisfies
   this parent — the box is infeasible, as in the tree contractor. *)

let push_f rlo rhi c plo phi =
  if not (plo <= phi) then raise Empty_box;
  if plo > rlo.(c) then rlo.(c) <- plo;
  if phi < rhi.(c) then rhi.(c) <- phi

let push_iv rlo rhi c p =
  if Interval.is_empty p then raise Empty_box;
  if Interval.lo p > rlo.(c) then rlo.(c) <- Interval.lo p;
  if Interval.hi p < rhi.(c) then rhi.(c) <- Interval.hi p

(* Current enclosure of slot [c] as seen mid-backward-pass: forward value
   met with the requirements pushed so far (including by the present
   parent).  This is what sibling projections read, recovering — and, with
   shared nodes, tightening — the tree contractor's sibling refinement. *)
let cur flo fhi rlo rhi c =
  let lo = fmax flo.(c) rlo.(c) and hi = fmin fhi.(c) rhi.(c) in
  if lo <= hi then Interval.make lo hi else raise Empty_box

let even_preimage current root_pos =
  let pos = Interval.meet current root_pos in
  let neg = Interval.meet current (Interval.neg root_pos) in
  Interval.hull pos neg

let target_bounds = function
  | Formula.Le0 | Formula.Lt0 -> (neg_infinity, 0.0)
  | Formula.Eq0 -> (0.0, 0.0)

let revise t b domains =
  let n = t.hc4_limit in
  forward_range t b domains 0 n;
  let flo = b.flo and fhi = b.fhi and rlo = b.rlo and rhi = b.rhi in
  let root = t.atom_root in
  (* A NaN forward endpoint can only survive at the root itself (anywhere
     else it propagates upward as emptiness), so this check also keeps NaN
     out of the fmax/fmin meets below. *)
  if not (flo.(root) <= fhi.(root)) then raise Empty_box;
  Array.fill rlo 0 n neg_infinity;
  Array.fill rhi 0 n infinity;
  let tlo, thi = target_bounds t.rel in
  rlo.(root) <- tlo;
  rhi.(root) <- thi;
  let changed = ref false in
  let instrs = t.instrs in
  for k = n - 1 downto 0 do
    (* Narrowed value of slot k.  Operand slots are strictly below k, so by
       the time k is processed every parent's push has landed: shared nodes
       are contracted once, with the meet of all parents' requirements. *)
    let klo = fmax flo.(k) rlo.(k) and khi = fmin fhi.(k) rhi.(k) in
    if not (klo <= khi) then raise Empty_box;
    rlo.(k) <- klo;
    rhi.(k) <- khi;
    (* Descend only through a node its parents narrowed.  An unnarrowed
       node still holds its forward enclosure, which contains the exact
       image of its operands' forward enclosures, so every projection below
       contains each operand's forward enclosure whatever the sibling reads
       (for k = a + c: klo - hi c' <= lo a whenever c' ⊆ c's forward); such
       a push narrows nothing.  Skipping it cannot hide an empty box either:
       a sibling whose requirements already miss its forward enclosure
       raises when its own slot is processed.  On a wide network's output
       sum the requirement stops narrowing a few additions below the root,
       so most of the atom is skipped. *)
    if klo > flo.(k) || khi < fhi.(k) then
    match Array.unsafe_get instrs k with
    | IConst _ -> ()
    | IVar j ->
      let d = domains.(j) in
      let dlo = Interval.lo d and dhi = Interval.hi d in
      let nlo = fmax dlo klo and nhi = fmin dhi khi in
      if not (nlo <= nhi) then raise Empty_box;
      if nlo > dlo || nhi < dhi then begin
        domains.(j) <- Interval.make nlo nhi;
        changed := true
      end
    | IAdd (a, c) ->
      let cb = cur flo fhi rlo rhi c in
      push_f rlo rhi a (down (klo -. Interval.hi cb)) (up (khi -. Interval.lo cb));
      let ca = cur flo fhi rlo rhi a in
      push_f rlo rhi c (down (klo -. Interval.hi ca)) (up (khi -. Interval.lo ca))
    | ISub (a, c) ->
      let cb = cur flo fhi rlo rhi c in
      push_f rlo rhi a (down (klo +. Interval.lo cb)) (up (khi +. Interval.hi cb));
      let ca = cur flo fhi rlo rhi a in
      push_f rlo rhi c (down (Interval.lo ca -. khi)) (up (Interval.hi ca -. klo))
    | IMul (a, c) ->
      let r = Interval.make klo khi in
      push_iv rlo rhi a (Interval.mul_preimage r (cur flo fhi rlo rhi c));
      push_iv rlo rhi c (Interval.mul_preimage r (cur flo fhi rlo rhi a))
    | IDiv (a, c) ->
      (* a / c = r: a ∈ r·c, and c·r meets a, the product's preimage. *)
      let r = Interval.make klo khi in
      push_iv rlo rhi a (Interval.mul r (cur flo fhi rlo rhi c));
      push_iv rlo rhi c (Interval.mul_preimage (cur flo fhi rlo rhi a) r)
    | INeg a -> push_f rlo rhi a (-.khi) (-.klo)
    | IPow (a, nexp) ->
      if nexp <= 0 then () (* pow 0 is constant; negative powers stay uncontracted *)
      else begin
        let root = Interval.root (Interval.make klo khi) nexp in
        if nexp mod 2 = 1 then push_iv rlo rhi a root (* odd: monotone, signed root *)
        else begin
          if Interval.is_empty root then raise Empty_box;
          push_iv rlo rhi a (even_preimage (cur flo fhi rlo rhi a) root)
        end
      end
    | ISin a ->
      (* Invert only within the principal monotone branch; otherwise leave
         the child unconstrained (sound, weaker). *)
      let ca = cur flo fhi rlo rhi a in
      if Interval.lo ca >= -.half_pi && Interval.hi ca <= half_pi then
        push_iv rlo rhi a (Interval.asin (Interval.make klo khi))
    | ICos a ->
      let ca = cur flo fhi rlo rhi a in
      if Interval.lo ca >= 0.0 && Interval.hi ca <= Float.pi then
        push_iv rlo rhi a (Interval.acos (Interval.make klo khi))
    | IAtan a -> push_iv rlo rhi a (Interval.tan_principal (Interval.make klo khi))
    | IExp a -> push_iv rlo rhi a (Interval.log (Interval.make klo khi))
    | ILog a -> push_iv rlo rhi a (Interval.exp (Interval.make klo khi))
    | ITanh a -> push_iv rlo rhi a (Interval.atanh (Interval.make klo khi))
    | ISigmoid a -> push_iv rlo rhi a (Interval.logit (Interval.make klo khi))
    | ISqrt a ->
      let rpos_lo = fmax klo 0.0 in
      if not (rpos_lo <= khi) then raise Empty_box;
      push_iv rlo rhi a (Interval.sqr (Interval.make rpos_lo khi))
    | IAbs a ->
      let rpos_lo = fmax klo 0.0 in
      if not (rpos_lo <= khi) then raise Empty_box;
      push_iv rlo rhi a (even_preimage (cur flo fhi rlo rhi a) (Interval.make rpos_lo khi))
  done;
  !changed
