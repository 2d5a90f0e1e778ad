type op =
  | Const of float
  | Var of string
  | Add of int * int
  | Sub of int * int
  | Mul of int * int
  | Div of int * int
  | Neg of int
  | Pow of int * int
  | Sin of int
  | Cos of int
  | Atan of int
  | Exp of int
  | Log of int
  | Tanh of int
  | Sigmoid of int
  | Sqrt of int
  | Abs of int

type t = {
  mutable nodes : op array;  (* grown by doubling; [0, count) valid *)
  mutable count : int;
  (* Consts are keyed by bit pattern so that 0. and -0. (which compare
     structurally equal but divide differently) stay distinct nodes. *)
  consts : (int64, int) Hashtbl.t;
  (* Every other op's operands are already-interned small ids, so the op
     value itself is a cheap O(1) structural key. *)
  interned : (op, int) Hashtbl.t;
}

let create () =
  {
    nodes = Array.make 64 (Const 0.0);
    count = 0;
    consts = Hashtbl.create 64;
    interned = Hashtbl.create 64;
  }

let node_count pool = pool.count

let push pool node =
  if pool.count = Array.length pool.nodes then begin
    let bigger = Array.make (2 * pool.count) (Const 0.0) in
    Array.blit pool.nodes 0 bigger 0 pool.count;
    pool.nodes <- bigger
  end;
  pool.nodes.(pool.count) <- node;
  pool.count <- pool.count + 1;
  pool.count - 1

let cons_const pool c =
  let key = Int64.bits_of_float c in
  match Hashtbl.find_opt pool.consts key with
  | Some id -> id
  | None ->
    let id = push pool (Const c) in
    Hashtbl.add pool.consts key id;
    id

let cons pool node =
  match Hashtbl.find_opt pool.interned node with
  | Some id -> id
  | None ->
    let id = push pool node in
    Hashtbl.add pool.interned node id;
    id

let rec intern pool (e : Expr.t) =
  match e with
  | Expr.Const c -> cons_const pool c
  | Expr.Var v -> cons pool (Var v)
  | Expr.Add (a, b) ->
    let ia = intern pool a in
    cons pool (Add (ia, intern pool b))
  | Expr.Sub (a, b) ->
    let ia = intern pool a in
    cons pool (Sub (ia, intern pool b))
  | Expr.Mul (a, b) ->
    let ia = intern pool a in
    cons pool (Mul (ia, intern pool b))
  | Expr.Div (a, b) ->
    let ia = intern pool a in
    cons pool (Div (ia, intern pool b))
  | Expr.Neg a -> cons pool (Neg (intern pool a))
  | Expr.Pow (a, n) -> cons pool (Pow (intern pool a, n))
  | Expr.Sin a -> cons pool (Sin (intern pool a))
  | Expr.Cos a -> cons pool (Cos (intern pool a))
  | Expr.Atan a -> cons pool (Atan (intern pool a))
  | Expr.Exp a -> cons pool (Exp (intern pool a))
  | Expr.Log a -> cons pool (Log (intern pool a))
  | Expr.Tanh a -> cons pool (Tanh (intern pool a))
  | Expr.Sigmoid a -> cons pool (Sigmoid (intern pool a))
  | Expr.Sqrt a -> cons pool (Sqrt (intern pool a))
  | Expr.Abs a -> cons pool (Abs (intern pool a))

let op pool id =
  if id < 0 || id >= pool.count then invalid_arg "Dag.op: id out of range";
  pool.nodes.(id)

let ops pool = Array.sub pool.nodes 0 pool.count
