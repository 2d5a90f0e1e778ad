type anode = { shape : shape; mutable ival : Interval.t }

and shape =
  | NConst of float
  | NVar of int
  | NAdd of anode * anode
  | NSub of anode * anode
  | NMul of anode * anode
  | NDiv of anode * anode
  | NNeg of anode
  | NPow of anode * int
  | NSin of anode
  | NCos of anode
  | NAtan of anode
  | NExp of anode
  | NLog of anode
  | NTanh of anode
  | NSigmoid of anode
  | NSqrt of anode
  | NAbs of anode

type compiled = { root : anode; rel : Formula.rel }

exception Empty_box

let compile ~index_of (atom : Formula.atom) =
  let rec go (e : Expr.t) =
    let shape =
      match e with
      | Expr.Const c -> NConst c
      | Expr.Var v -> NVar (index_of v)
      | Expr.Add (a, b) -> NAdd (go a, go b)
      | Expr.Sub (a, b) -> NSub (go a, go b)
      | Expr.Mul (a, b) -> NMul (go a, go b)
      | Expr.Div (a, b) -> NDiv (go a, go b)
      | Expr.Neg a -> NNeg (go a)
      | Expr.Pow (a, n) -> NPow (go a, n)
      | Expr.Sin a -> NSin (go a)
      | Expr.Cos a -> NCos (go a)
      | Expr.Atan a -> NAtan (go a)
      | Expr.Exp a -> NExp (go a)
      | Expr.Log a -> NLog (go a)
      | Expr.Tanh a -> NTanh (go a)
      | Expr.Sigmoid a -> NSigmoid (go a)
      | Expr.Sqrt a -> NSqrt (go a)
      | Expr.Abs a -> NAbs (go a)
    in
    { shape; ival = Interval.entire }
  in
  { root = go atom.expr; rel = atom.rel }

let rec fwd domains node =
  let v =
    match node.shape with
    | NConst c -> Interval.of_float c
    | NVar i -> domains.(i)
    | NAdd (a, b) -> Interval.add (fwd domains a) (fwd domains b)
    | NSub (a, b) -> Interval.sub (fwd domains a) (fwd domains b)
    | NMul (a, b) -> Interval.mul (fwd domains a) (fwd domains b)
    | NDiv (a, b) -> Interval.div (fwd domains a) (fwd domains b)
    | NNeg a -> Interval.neg (fwd domains a)
    | NPow (a, n) -> Interval.pow (fwd domains a) n
    | NSin a -> Interval.sin (fwd domains a)
    | NCos a -> Interval.cos (fwd domains a)
    | NAtan a -> Interval.atan (fwd domains a)
    | NExp a -> Interval.exp (fwd domains a)
    | NLog a -> Interval.log (fwd domains a)
    | NTanh a -> Interval.tanh (fwd domains a)
    | NSigmoid a -> Interval.sigmoid (fwd domains a)
    | NSqrt a -> Interval.sqrt (fwd domains a)
    | NAbs a -> Interval.abs (fwd domains a)
  in
  node.ival <- v;
  v

let forward domains c = fwd domains c.root

let target_interval = function
  | Formula.Le0 | Formula.Lt0 -> Interval.make neg_infinity 0.0
  | Formula.Eq0 -> Interval.of_float 0.0

let certainly_true domains c =
  let i = fwd domains c.root in
  if Interval.is_empty i then false
  else begin
    match c.rel with
    | Formula.Le0 -> Interval.hi i <= 0.0
    | Formula.Lt0 -> Interval.hi i < 0.0
    | Formula.Eq0 -> Interval.lo i = 0.0 && Interval.hi i = 0.0
  end

(* Preimage of an even-power / abs style constraint: the required output r
   (restricted to non-negatives) pulls the input into ±root(r), intersected
   with the current input enclosure. *)
let even_preimage current root_pos =
  let pos = Interval.meet current root_pos in
  let neg = Interval.meet current (Interval.neg root_pos) in
  Interval.hull pos neg

(* Descends through every node, narrowed or not.  Tape.revise skips the
   pushes below an unnarrowed node; this walk keeps them, as the plain HC4
   that test_tape's tightness property holds the tape to. *)
let rec bwd domains changed node required =
  let r = Interval.meet node.ival required in
  if Interval.is_empty r then raise Empty_box;
  node.ival <- r;
  match node.shape with
  | NConst _ -> ()
  | NVar i ->
    let d = Interval.meet domains.(i) r in
    if Interval.is_empty d then raise Empty_box;
    (* The only write sites into [domains] — the dirty flag set here is
       revise's change report, replacing a whole-array copy-and-rescan. *)
    if not (Interval.equal d domains.(i)) then begin
      domains.(i) <- d;
      changed := true
    end
  | NAdd (a, b) ->
    bwd domains changed a (Interval.sub r b.ival);
    bwd domains changed b (Interval.sub r a.ival)
  | NSub (a, b) ->
    bwd domains changed a (Interval.add r b.ival);
    bwd domains changed b (Interval.sub a.ival r)
  | NMul (a, b) ->
    (* x*y = r: x ∈ r/y, except that when 0 ∈ r and 0 ∈ y every x
       qualifies, which [mul_preimage] answers with entire. *)
    bwd domains changed a (Interval.mul_preimage r b.ival);
    bwd domains changed b (Interval.mul_preimage r a.ival)
  | NDiv (a, b) ->
    bwd domains changed a (Interval.mul r b.ival);
    bwd domains changed b (Interval.mul_preimage a.ival r)
  | NNeg a -> bwd domains changed a (Interval.neg r)
  | NPow (a, n) ->
    if n <= 0 then () (* pow 0 is constant; negative powers stay uncontracted *)
    else begin
      let root = Interval.root r n in
      if n mod 2 = 1 then bwd domains changed a root (* odd: monotone, signed root *)
      else begin
        if Interval.is_empty root then raise Empty_box;
        bwd domains changed a (even_preimage a.ival root)
      end
    end
  | NSin a ->
    (* Invert only within the principal monotone branch; otherwise leave
       the child unconstrained (sound, weaker). *)
    let half_pi = Float.pi /. 2.0 in
    if Interval.lo a.ival >= -.half_pi && Interval.hi a.ival <= half_pi then
      bwd domains changed a (Interval.asin r)
  | NCos a ->
    if Interval.lo a.ival >= 0.0 && Interval.hi a.ival <= Float.pi then
      bwd domains changed a (Interval.acos r)
  | NAtan a -> bwd domains changed a (Interval.tan_principal r)
  | NExp a -> bwd domains changed a (Interval.log r)
  | NLog a -> bwd domains changed a (Interval.exp r)
  | NTanh a -> bwd domains changed a (Interval.atanh r)
  | NSigmoid a -> bwd domains changed a (Interval.logit r)
  | NSqrt a ->
    let rpos = Interval.meet r (Interval.make 0.0 infinity) in
    if Interval.is_empty rpos then raise Empty_box;
    bwd domains changed a (Interval.sqr rpos)
  | NAbs a ->
    let rpos = Interval.meet r (Interval.make 0.0 infinity) in
    if Interval.is_empty rpos then raise Empty_box;
    bwd domains changed a (even_preimage a.ival rpos)

let revise domains c =
  let root_ival = fwd domains c.root in
  let required = Interval.meet root_ival (target_interval c.rel) in
  if Interval.is_empty required then raise Empty_box;
  let changed = ref false in
  bwd domains changed c.root required;
  !changed
