(* Staged compilation of an STA network (the UPPAAL-style "compiled
   run-time representation"): expressions become closures, per-location
   move tables are precomputed, and simulation runs on a mutable
   per-worker scratch state instead of immutable snapshots.

   The compiled core is semantically locked to the interpreter
   (Expr.eval / Linear.sat_set / State / Moves): every float operation
   is performed in the same order with the same primitives, so a
   compiled path produces a bit-identical verdict stream for a fixed
   seed.  The one documented deviation: integer arithmetic feeding a
   comparison is carried in doubles, so integers beyond 2^53 would
   diverge (SLIM integers are small), and the *message* carried by a
   [Value.Type_error] from an ill-typed model may differ (the exception
   itself, and hence the verdict/error stream, does not). *)

module I = Slimsim_intervals.Interval_set
module W = Slimsim_intervals.Window

(* ------------------------------------------------------------------ *)
(* Scratch state                                                      *)

type cstate = {
  locs : int array;
  vals : Value.t array;
      (* authoritative for variable [v] unless [ftag.(v)] is set *)
  fval : float array;
      (* unboxed numeric store; authoritative where [ftag] is set *)
  ftag : Bytes.t;
  rates : float array;  (* current derivative vector, see [set_rates] *)
  time : float array;  (* singleton cell: flat float array = unboxed *)
  markov_buf : float array;  (* scratch for the exponential race *)
  was_active : Bytes.t;
  (* Flow cone: flows marked for re-evaluation by the next flow pass,
     and their count. *)
  dirty : Bytes.t;
  mutable n_dirty : int;
  mutable time_stale : bool;  (* advanced since the last flow pass *)
  (* Undo journal for trial execution: the first write to a variable or
     location inside a trial records its old contents; [end_trial]
     writes them back.  [jmark] flags journaled variables, then
     locations (offset by the variable count). *)
  mutable trial : bool;
  jmark : Bytes.t;
  j_var : int array;
  j_val : Value.t array;
  j_fval : float array;
  j_tag : Bytes.t;
  mutable n_jv : int;
  j_proc : int array;
  j_loc : int array;
  mutable n_jl : int;
  saved_time : float array;
  mutable saved_time_stale : bool;
  (* Delay windows (see [Window]): the invariant window and a formula's
     window in slot 0 of their tables, move [i]'s window in slot [i]. *)
  inv_w : W.t;
  goal_w : W.t;
  move_w : W.t;
  (* The move buffer.  Move [i] is local when [mv_proc.(i) >= 0], with
     transition [mv_tr.(i)]; otherwise it synchronizes event
     [-1 - mv_proc.(i)] over the [mv_np.(i)] (proc, transition) pairs
     at [parts.(mv_tr.(i))]. *)
  mutable mv_proc : int array;
  mutable mv_tr : int array;
  mutable mv_np : int array;
  mutable n_moves : int;
  mutable parts : int array;
  mutable n_parts : int;
  (* Synchronization candidates: windows, transitions, and per active
     participant its first candidate, candidate count and odometer
     digit. *)
  cand_w : W.t;
  mutable cand_tr : int array;
  sync_procs : int array;
  cand_start : int array;
  cand_n : int array;
  odo : int array;
  (* The Markov race: entry [k] is transition [markov_tr.(k)] of process
     [markov_proc.(k)], with its rate in [markov_buf.(k)]. *)
  markov_proc : int array;
  markov_tr : int array;
  lin : float array;  (* [a; b] of the comparison a window writer solves *)
}

let time s = s.time.(0)
let markov_buf s = s.markov_buf

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

(* [vals]/[fval] coherence: a delay advance writes the unboxed cell and
   sets the tag; a generic read materializes the box once and clears the
   tag; a discrete write stores the box and clears the tag. *)

let get_v s v =
  if Bytes.unsafe_get s.ftag v = '\001' then begin
    let b = Value.Real (Array.unsafe_get s.fval v) in
    s.vals.(v) <- b;
    Bytes.unsafe_set s.ftag v '\000';
    b
  end
  else Array.unsafe_get s.vals v

(* [Value.as_float], inlined: a call across the module boundary would
   box its result. *)
let[@inline] num_of_value = function
  | Value.Int n -> float_of_int n
  | Value.Real x -> x
  | Value.Bool _ as b -> Value.as_float b (* raises the type error *)

let[@inline] get_f s v =
  if Bytes.unsafe_get s.ftag v = '\001' then Array.unsafe_get s.fval v
  else num_of_value (Array.unsafe_get s.vals v)

(* Read-only views for cost extraction: the current numeric value of a
   variable and its derivative as of the last [set_rates]. *)
let var_float s v = get_f s v
let rate s v = s.rates.(v)

(* Trial journal.  Each variable and location is journaled once per
   trial, so the journal never holds more than [n_vars + n_procs]
   entries and the order of the undo does not matter. *)
let journal_var s v =
  if Bytes.get s.jmark v = '\000' then begin
    Bytes.set s.jmark v '\001';
    let k = s.n_jv in
    s.j_var.(k) <- v;
    s.j_val.(k) <- s.vals.(v);
    s.j_fval.(k) <- s.fval.(v);
    Bytes.set s.j_tag k (Bytes.get s.ftag v);
    s.n_jv <- k + 1
  end

let journal_loc s p =
  let m = Array.length s.vals + p in
  if Bytes.get s.jmark m = '\000' then begin
    Bytes.set s.jmark m '\001';
    let k = s.n_jl in
    s.j_proc.(k) <- p;
    s.j_loc.(k) <- s.locs.(p);
    s.n_jl <- k + 1
  end

(* Discrete writes; the advance writes unboxed through [set_f], which
   never journals (see [advance_journaled]). *)
let set_v s v x =
  if s.trial then journal_var s v;
  s.vals.(v) <- x;
  Bytes.unsafe_set s.ftag v '\000'

let set_loc s p l =
  if s.trial then journal_loc s p;
  s.locs.(p) <- l

let[@inline] set_f s v x =
  Array.unsafe_set s.fval v x;
  Bytes.unsafe_set s.ftag v '\001'

let make_cstate ~locs ~vals ~rates ~time ~n_flows ~n_markov =
  let n = Array.length vals and np = Array.length locs in
  {
    locs;
    vals;
    fval = Array.make n 0.0;
    ftag = Bytes.make n '\000';
    rates;
    time = [| time |];
    markov_buf = Array.make n_markov 0.0;
    was_active = Bytes.make np '\000';
    dirty = Bytes.make n_flows '\000';
    n_dirty = 0;
    time_stale = false;
    trial = false;
    jmark = Bytes.make (n + np) '\000';
    j_var = Array.make n 0;
    j_val = Array.make n vfalse;
    j_fval = Array.make n 0.0;
    j_tag = Bytes.make n '\000';
    n_jv = 0;
    j_proc = Array.make np 0;
    j_loc = Array.make np 0;
    n_jl = 0;
    saved_time = [| time |];
    saved_time_stale = false;
    inv_w = W.create 1;
    goal_w = W.create 1;
    move_w = W.create 8;
    mv_proc = Array.make 8 0;
    mv_tr = Array.make 8 0;
    mv_np = Array.make 8 0;
    n_moves = 0;
    parts = Array.make 8 0;
    n_parts = 0;
    cand_w = W.create 8;
    cand_tr = Array.make 8 0;
    sync_procs = Array.make np 0;
    cand_start = Array.make np 0;
    cand_n = Array.make np 0;
    odo = Array.make np 0;
    markov_proc = Array.make n_markov 0;
    markov_tr = Array.make n_markov 0;
    lin = [| 0.0; 0.0 |];
  }

let cstate_of ~locs ~vals ~rates ~time =
  make_cstate ~locs:(Array.copy locs) ~vals:(Array.copy vals)
    ~rates:(Array.copy rates) ~time ~n_flows:0 ~n_markov:0

(* ------------------------------------------------------------------ *)
(* Expression compilation                                             *)

type cvalue = cstate -> Value.t
type cbool = cstate -> bool
type cfloat = cstate -> float
type csat = cstate -> I.t

(* Static shape of an expression's result, used to pick unboxed
   specializations only where they provably agree with [Expr.eval]. *)
type shape = Sbool | Snum | Sunknown

let rec shape : Expr.t -> shape = function
  | Const (Value.Bool _) -> Sbool
  | Const (Value.Int _ | Value.Real _) -> Snum
  | Var _ -> Sunknown
  | Loc _ -> Sbool
  | Unop (Not, _) -> Sbool
  | Unop (Neg, _) -> Snum
  | Binop ((And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _) -> Sbool
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), _, _) -> Snum
  | Ite (_, a, b) -> (
    match shape a, shape b with
    | Sbool, Sbool -> Sbool
    | Snum, Snum -> Snum
    | _ -> Sunknown)

(* True when the expression, if it evaluates to a number at all, is a
   [Real] — the condition under which float division agrees with
   [Value.div] (which is integer division on two [Int]s). *)
let rec definitely_real : Expr.t -> bool = function
  | Const (Value.Real _) -> true
  | Const _ | Var _ | Loc _ -> false
  | Unop (Neg, e) -> definitely_real e
  | Unop (Not, _) -> false
  | Binop ((Add | Sub | Mul | Div), e1, e2) ->
    definitely_real e1 || definitely_real e2
  | Binop ((Min | Max), e1, e2) -> definitely_real e1 && definitely_real e2
  | Binop ((Mod | And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _) ->
    false
  | Ite (_, a, b) -> definitely_real a && definitely_real b

(* A comparison operand read without a closure: a variable, or a
   numeric constant with its float value ([compile_float]'s). *)
type operand = Ovar of int | Oconst of Value.t * float

let operand : Expr.t -> operand option = function
  | Var v -> Some (Ovar v)
  | Const ((Value.Int _ | Value.Real _) as v) -> Some (Oconst (v, Value.as_float v))
  | _ -> None

let[@inline] op_rate s = function Ovar v -> s.rates.(v) | Oconst _ -> 0.0
let[@inline] op_float s = function Ovar v -> get_f s v | Oconst (_, x) -> x
let op_value s = function Ovar v -> get_v s v | Oconst (v, _) -> v

let rec compile_value (e : Expr.t) : cvalue =
  match e with
  | Const v -> fun _ -> v
  | Var v -> fun s -> get_v s v
  | Loc (p, l) -> fun s -> vbool (s.locs.(p) = l)
  | Unop (Neg, e1) ->
    let c = compile_value e1 in
    fun s -> Value.neg (c s)
  | Unop (Not, e1) ->
    let c = compile_bool e1 in
    fun s -> vbool (not (c s))
  | Binop (And, _, _) | Binop (Or, _, _) | Binop (Implies, _, _)
  | Binop (Eq, _, _) | Binop (Neq, _, _)
  | Binop (Lt, _, _) | Binop (Le, _, _) | Binop (Gt, _, _) | Binop (Ge, _, _) ->
    let c = compile_bool e in
    fun s -> vbool (c s)
  | Binop (op, e1, e2) ->
    let c1 = compile_value e1 and c2 = compile_value e2 in
    let f =
      match op with
      | Add -> Value.add
      | Sub -> Value.sub
      | Mul -> Value.mul
      | Div -> Value.div
      | Mod -> Value.modulo
      | Min -> Value.min_v
      | Max -> Value.max_v
      | _ -> assert false
    in
    fun s ->
      let v1 = c1 s in
      let v2 = c2 s in
      f v1 v2
  | Ite (c, e1, e2) ->
    let cc = compile_bool c and c1 = compile_value e1 and c2 = compile_value e2 in
    fun s -> if cc s then c1 s else c2 s

and compile_bool (e : Expr.t) : cbool =
  match e with
  | Const (Value.Bool b) -> fun _ -> b
  | Const v -> fun _ -> Value.as_bool v
  | Var v -> fun s -> Value.as_bool (get_v s v)
  | Loc (p, l) -> fun s -> s.locs.(p) = l
  | Unop (Not, e1) ->
    let c = compile_bool e1 in
    fun s -> not (c s)
  | Unop (Neg, _) ->
    let c = compile_value e in
    fun s -> Value.as_bool (c s)
  | Binop (And, e1, e2) ->
    let c1 = compile_bool e1 and c2 = compile_bool e2 in
    fun s -> c1 s && c2 s
  | Binop (Or, e1, e2) ->
    let c1 = compile_bool e1 and c2 = compile_bool e2 in
    fun s -> c1 s || c2 s
  | Binop (Implies, e1, e2) ->
    let c1 = compile_bool e1 and c2 = compile_bool e2 in
    fun s -> (not (c1 s)) || c2 s
  | Binop ((Eq | Neq) as op, e1, e2) -> (
    let neg = op = Neq in
    match shape e1, shape e2 with
    | Sbool, Sbool ->
      let c1 = compile_bool e1 and c2 = compile_bool e2 in
      if neg then fun s -> c1 s <> c2 s else fun s -> c1 s = c2 s
    | Snum, Snum ->
      let c1 = compile_float e1 and c2 = compile_float e2 in
      if neg then fun s -> c1 s <> c2 s else fun s -> c1 s = c2 s
    | _ ->
      let c1 = compile_value e1 and c2 = compile_value e2 in
      if neg then fun s ->
        let v1 = c1 s in
        let v2 = c2 s in
        not (Value.equal v1 v2)
      else fun s ->
        let v1 = c1 s in
        let v2 = c2 s in
        Value.equal v1 v2)
  | Binop ((Lt | Le | Gt | Ge) as op, e1, e2)
    when Option.is_some (operand e1) && Option.is_some (operand e2) -> (
    (* [compile_float] of each side, read in place. *)
    let o1 = Option.get (operand e1) and o2 = Option.get (operand e2) in
    match op with
    | Lt -> fun s ->
        let x = op_float s o1 in
        Float.compare x (op_float s o2) < 0
    | Le -> fun s ->
        let x = op_float s o1 in
        Float.compare x (op_float s o2) <= 0
    | Gt -> fun s ->
        let x = op_float s o1 in
        Float.compare x (op_float s o2) > 0
    | _ -> fun s ->
        let x = op_float s o1 in
        Float.compare x (op_float s o2) >= 0)
  | Binop ((Lt | Le | Gt | Ge) as op, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    (* [Float.compare] matches [Value.compare_num]'s total order (it
       falls back to polymorphic compare on floats, incl. NaN). *)
    (match op with
    | Lt -> fun s ->
        let x = c1 s in
        let y = c2 s in
        Float.compare x y < 0
    | Le -> fun s ->
        let x = c1 s in
        let y = c2 s in
        Float.compare x y <= 0
    | Gt -> fun s ->
        let x = c1 s in
        let y = c2 s in
        Float.compare x y > 0
    | Ge -> fun s ->
        let x = c1 s in
        let y = c2 s in
        Float.compare x y >= 0
    | _ -> assert false)
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), _, _) ->
    let c = compile_value e in
    fun s -> Value.as_bool (c s)
  | Ite (c, e1, e2) ->
    let cc = compile_bool c and c1 = compile_bool e1 and c2 = compile_bool e2 in
    fun s -> if cc s then c1 s else c2 s

and compile_float (e : Expr.t) : cfloat =
  match e with
  | Const (Value.Int n) ->
    let x = float_of_int n in
    fun _ -> x
  | Const (Value.Real x) -> fun _ -> x
  | Const v -> fun _ -> Value.as_float v
  | Var v -> fun s -> get_f s v
  | Loc _ ->
    let c = compile_bool e in
    fun s -> Value.as_float (vbool (c s))
  | Unop (Neg, e1) when definitely_real e1 ->
    let c = compile_float e1 in
    fun s -> -.(c s)
  | Unop (Neg, _) ->
    (* A possibly-[Int] operand: [Value.neg (Int 0)] is [+0.0] where the
       float negate would give [-0.0]. *)
    let c = compile_value e in
    fun s -> Value.as_float (c s)
  | Unop (Not, _)
  | Binop ((And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _) ->
    let c = compile_bool e in
    fun s -> Value.as_float (vbool (c s))
  | Binop (Add, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x +. y
  | Binop (Sub, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x -. y
  | Binop (Mul, e1, e2) when definitely_real e1 || definitely_real e2 ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x *. y
  | Binop (Mul, _, _) ->
    (* Two possibly-[Int] operands: [Int 0 * Int (-1)] is [+0.0] where
       the float product would give [-0.0]. *)
    let c = compile_value e in
    fun s -> Value.as_float (c s)
  | Binop (Div, e1, e2) when definitely_real e1 || definitely_real e2 ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if y = 0.0 then raise (Value.Type_error "division by zero") else x /. y
  | Binop ((Div | Mod), _, _) ->
    (* Two possibly-[Int] operands: integer division/modulo semantics. *)
    let c = compile_value e in
    fun s -> Value.as_float (c s)
  | Binop (Min, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if Float.compare x y <= 0 then x else y
  | Binop (Max, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if Float.compare x y >= 0 then x else y
  | Ite (c, e1, e2) ->
    let cc = compile_bool c and c1 = compile_float e1 and c2 = compile_float e2 in
    fun s -> if cc s then c1 s else c2 s

(* Staged [Linear.eval_sym] / [Linear.sat_set]: the delay-dependent
   symbolic evaluation with the AST dispatch done once. *)
and compile_sym (e : Expr.t) : cstate -> Linear.sval =
  match e with
  | Const v -> fun _ -> Linear.Disc v
  | Var v ->
    fun s ->
      let r = s.rates.(v) in
      if r = 0.0 then Linear.Disc (get_v s v)
      else Linear.Num { a = get_f s v; b = r }
  | Loc (p, l) -> fun s -> Linear.Disc (vbool (s.locs.(p) = l))
  | Unop (Neg, e1) ->
    let c = compile_sym e1 in
    fun s ->
      (match c s with
      | Linear.Disc v -> Linear.Disc (Value.neg v)
      | Linear.Num { a; b } -> Linear.Num { a = -.a; b = -.b })
  | Unop (Not, _) | Binop ((And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _)
    ->
    let c = compile_value e in
    fun s -> Linear.Disc (c s)
  | Binop (Add, e1, e2) -> compile_lift2 ( +. ) Value.add e1 e2
  | Binop (Sub, e1, e2) -> compile_lift2 ( -. ) Value.sub e1 e2
  | Binop (Mul, e1, e2) ->
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (Value.mul v1 v2)
      | Linear.Num l, Linear.Disc v | Linear.Disc v, Linear.Num l ->
        let c = Value.as_float v in
        Linear.Num { a = l.a *. c; b = l.b *. c }
      | Linear.Num l1, Linear.Num l2 ->
        if l1.b = 0.0 then Linear.Num { a = l1.a *. l2.a; b = l1.a *. l2.b }
        else if l2.b = 0.0 then Linear.Num { a = l1.a *. l2.a; b = l2.a *. l1.b }
        else raise (Linear.Nonlinear "product of two delay-dependent terms"))
  | Binop (Div, e1, e2) ->
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s2 with
      | Linear.Disc v2 when not (Value.is_numeric v2) ->
        Linear.Disc (Value.div (Value.Real 0.0) v2) (* raises the type error *)
      | Linear.Disc v2 -> (
        let c = Value.as_float v2 in
        if c = 0.0 then raise (Value.Type_error "division by zero")
        else
          match s1 with
          | Linear.Disc v1 -> Linear.Disc (Value.div v1 v2)
          | Linear.Num l -> Linear.Num { a = l.a /. c; b = l.b /. c })
      | Linear.Num l2 ->
        if l2.b = 0.0 then begin
          (* [Linear] restages with a [Real l2.a] divisor; inline it. *)
          let c = l2.a in
          if c = 0.0 then raise (Value.Type_error "division by zero")
          else
            match s1 with
            | Linear.Disc v1 -> Linear.Disc (Value.div v1 (Value.Real c))
            | Linear.Num l -> Linear.Num { a = l.a /. c; b = l.b /. c }
        end
        else raise (Linear.Nonlinear "division by a delay-dependent term"))
  | Binop (Mod, e1, e2) ->
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (Value.modulo v1 v2)
      | _ -> raise (Linear.Nonlinear "mod of a delay-dependent term"))
  | Binop ((Min | Max) as op, e1, e2) ->
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
    let f = if op = Min then Value.min_v else Value.max_v in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (f v1 v2)
      | _ -> raise (Linear.Nonlinear "min/max of a delay-dependent term"))
  | Ite (c, e1, e2) ->
    let cc = compile_sat c and c1 = compile_sym e1 and c2 = compile_sym e2 in
    fun s ->
      let cset = cc s in
      if I.equal cset I.full then c1 s
      else if I.is_empty cset then c2 s
      else raise (Linear.Nonlinear "if-then-else condition depends on the delay")

and compile_lift2 fop vop e1 e2 =
  let c1 = compile_sym e1 and c2 = compile_sym e2 in
  fun s ->
    let s1 = c1 s in
    let s2 = c2 s in
    match s1, s2 with
    | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (vop v1 v2)
    | _ ->
      let l1 = Linear.promote s1 and l2 = Linear.promote s2 in
      Linear.Num { a = fop l1.Linear.a l2.Linear.a; b = fop l1.Linear.b l2.Linear.b }

and compile_sat (e : Expr.t) : csat =
  match e with
  | Const (Value.Bool true) -> fun _ -> I.full
  | Const (Value.Bool false) -> fun _ -> I.empty
  | Const v -> fun _ -> if Value.as_bool v then I.full else I.empty
  | Var _ | Loc _ ->
    let c = compile_bool e in
    fun s -> if c s then I.full else I.empty
  | Unop (Not, e1) ->
    let c = compile_sat e1 in
    fun s -> I.complement (c s)
  | Unop (Neg, _) ->
    fun _ -> raise (Value.Type_error "numeric expression used as a guard")
  | Binop (And, e1, e2) ->
    let c1 = compile_sat e1 and c2 = compile_sat e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.inter s1 s2
  | Binop (Or, e1, e2) ->
    let c1 = compile_sat e1 and c2 = compile_sat e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.union s1 s2
  | Binop (Implies, e1, e2) ->
    let c1 = compile_sat e1 and c2 = compile_sat e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.union (I.complement s1) s2
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge) as op, e1, e2) ->
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 ->
        let holds =
          match op with
          | Eq -> Value.equal v1 v2
          | Neq -> not (Value.equal v1 v2)
          | Lt -> Value.compare_num v1 v2 < 0
          | Le -> Value.compare_num v1 v2 <= 0
          | Gt -> Value.compare_num v1 v2 > 0
          | Ge -> Value.compare_num v1 v2 >= 0
          | _ -> assert false
        in
        if holds then I.full else I.empty
      | _ ->
        let l1 = Linear.promote s1 and l2 = Linear.promote s2 in
        Linear.solve_cmp op
          { Linear.a = l1.Linear.a -. l2.Linear.a; b = l1.Linear.b -. l2.Linear.b })
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), _, _) ->
    fun _ -> raise (Value.Type_error "numeric expression used as a guard")
  | Ite (c, e1, e2) ->
    let cc = compile_sat c and c1 = compile_sat e1 and c2 = compile_sat e2 in
    fun s ->
      let cset = cc s in
      let s1 = c1 s in
      let s2 = c2 s in
      I.union (I.inter cset s1) (I.inter (I.complement cset) s2)

(* ------------------------------------------------------------------ *)
(* Window writers                                                     *)

(* A window writer intersects a formula's delay sat-set into a convex
   window slot, in place: [I.inter slot (Linear.sat_set e)].  Staged
   only for formulas whose sat-set is provably one interval or empty:
   conjunctions of literals, where a literal is a Boolean constant,
   variable or location atom (possibly negated), or a comparison other
   than [<>] (negated only when it is an order) between variables and
   numeric constants.  Every literal is evaluated, left to
   right, with [compile_sym]'s reads and float operations, so the same
   exception is raised first; a NaN bound raises [W.Nan_bound] and the
   caller recomputes the window through [compile_sat]. *)
type cwin = cstate -> W.t -> int -> unit

(* [op] is one of [Lt Le Gt Ge Eq]; [neg] complements the sat-set.
   When both sides are delay-invariant, [Value.equal] /
   [Value.compare_num] decide (as [compile_bool] compares them);
   otherwise [Linear.solve_cmp op {a; b}] on the promoted operands. *)
let cmp_literal ~neg (op : Expr.binop) o1 o2 : cwin =
  let code =
    match op with
    | Lt -> W.cmp_lt
    | Le -> W.cmp_le
    | Gt -> W.cmp_gt
    | Ge -> W.cmp_ge
    | _ -> W.cmp_eq
  in
  let ordered c =
    match op with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | _ -> c >= 0
  in
  match o1, o2 with
  | Ovar v, Oconst (k, y) ->
    (* The common [x ⋈ c], without the operand dispatch. *)
    fun s w i ->
      let r = s.rates.(v) in
      if r = 0.0 then begin
        let holds =
          if code = W.cmp_eq then Value.equal (get_v s v) k
          else ordered (Float.compare (get_f s v) y)
        in
        if holds = neg then W.set_empty w i
      end
      else begin
        s.lin.(0) <- get_f s v -. y;
        s.lin.(1) <- r;
        W.meet_cmp w i ~op:code ~neg s.lin
      end
  | _ ->
    fun s w i ->
      let r1 = op_rate s o1 in
      let r2 = op_rate s o2 in
      if r1 = 0.0 && r2 = 0.0 then begin
        let holds =
          if code = W.cmp_eq then Value.equal (op_value s o1) (op_value s o2)
          else
            let x = op_float s o1 in
            ordered (Float.compare x (op_float s o2))
        in
        if holds = neg then W.set_empty w i
      end
      else begin
        let x = op_float s o1 in
        s.lin.(0) <- x -. op_float s o2;
        s.lin.(1) <- r1 -. r2;
        W.meet_cmp w i ~op:code ~neg s.lin
      end

(* A delay-invariant atom, [want] = false under an odd number of
   negations. *)
let rec bool_literal want (e : Expr.t) : cwin option =
  match e with
  | Var v -> Some (fun s w i -> if Value.as_bool (get_v s v) <> want then W.set_empty w i)
  | Loc (p, l) -> Some (fun s w i -> if (s.locs.(p) = l) <> want then W.set_empty w i)
  | Const _ ->
    let c = compile_bool e in
    Some (fun s w i -> if c s <> want then W.set_empty w i)
  | Unop (Not, e1) -> bool_literal (not want) e1
  | _ -> None

(* A comparison reading only [untimed] variables (whose rate is always
   0) is delay-invariant: [compile_sym] makes both sides [Disc], and
   its sat-set is everything or nothing as [compile_bool] decides —
   any comparison, [<>] and arithmetic operands included.  Not through
   an [Ite]: [Linear.sat_set] decides its condition without
   short-circuits. *)
let literal ~untimed (e : Expr.t) : cwin option =
  let rec no_ite : Expr.t -> bool = function
    | Const _ | Var _ | Loc _ -> true
    | Unop (_, e) -> no_ite e
    | Binop (_, e1, e2) -> no_ite e1 && no_ite e2
    | Ite _ -> false
  in
  let invariant e = no_ite e && List.for_all untimed (Expr.free_vars e) in
  let decided ~want e =
    let c = compile_bool e in
    Some (fun s w i -> if c s <> want then W.set_empty w i)
  in
  let cmp ~neg op e1 e2 =
    match operand e1, operand e2 with
    | Some o1, Some o2 -> Some (cmp_literal ~neg op o1 o2)
    | _ -> None
  in
  match e with
  | Binop ((Lt | Le | Gt | Ge | Eq | Neq), _, _) when invariant e -> decided ~want:true e
  | Unop (Not, (Binop ((Lt | Le | Gt | Ge | Eq | Neq), _, _) as e1)) when invariant e1 ->
    decided ~want:false e1
  | Binop (((Lt | Le | Gt | Ge | Eq) as op), e1, e2) -> cmp ~neg:false op e1 e2
  | Unop (Not, Binop (((Lt | Le | Gt | Ge) as op), e1, e2)) -> cmp ~neg:true op e1 e2
  | _ -> bool_literal true e

let compile_writer ~untimed (e : Expr.t) : cwin option =
  let rec conjuncts acc (e : Expr.t) =
    match e with
    | Binop (And, e1, e2) -> Option.bind (conjuncts acc e1) (fun acc -> conjuncts acc e2)
    | _ -> Option.map (fun l -> l :: acc) (literal ~untimed e)
  in
  match conjuncts [] e with
  | None -> None
  | Some [ l ] -> Some l
  | Some [ l2; l1 ] ->
    Some
      (fun s w i ->
        l1 s w i;
        l2 s w i)
  | Some [ l3; l2; l1 ] ->
    Some
      (fun s w i ->
        l1 s w i;
        l2 s w i;
        l3 s w i)
  | Some ls ->
    let ls = Array.of_list (List.rev ls) in
    Some
      (fun s w i ->
        for k = 0 to Array.length ls - 1 do
          ls.(k) s w i
        done)

(* A left-nested disjunction of conjunctions (how [a or b or c]
   parses): [Linear.sat_set]'s [I.union] of the disjuncts, left to
   right. *)
let compile_disjuncts ~untimed (e : Expr.t) : cwin array option =
  let rec go acc (e : Expr.t) =
    match e with
    | Binop (Or, e1, e2) ->
      Option.bind (compile_writer ~untimed e2) (fun w -> go (w :: acc) e1)
    | _ -> Option.map (fun w -> Array.of_list (w :: acc)) (compile_writer ~untimed e)
  in
  go [] e

let compile_window ?(untimed = fun _ -> false) e =
  Option.map
    (fun (wr : cwin) s ->
      let w = W.create 1 in
      W.set_full w 0;
      wr s w 0;
      W.meet_lo w 0 ~closed:true 0.0;
      W.to_set w 0)
    (compile_writer ~untimed e)

(* ------------------------------------------------------------------ *)
(* Compiled network tables                                            *)

type ctrans = {
  tr_id : int;  (* index into [Automaton.transitions], for [Moves] parity *)
  t_dst : int;
  t_guard : csat;
  t_win : cwin option;  (* the guard's window writer, when convex *)
  t_rate : float;  (* 0 for guarded transitions *)
  t_updates : (int * cvalue) array;
}

type cloc = {
  inv_trivial : bool;
  inv_sat : csat;
  inv_win : cwin option;
  inv_bool : cbool;
  l_derivs : (int * float) array;
  tau : ctrans array;  (* guarded τ transitions, in outgoing order *)
  by_event : ctrans array array;  (* guarded event transitions, per event *)
  markov : ctrans array;  (* rate transitions, in outgoing order *)
}

type cproc = {
  active_trivial : bool;
  active : cbool;
  p_initial : int;
  p_trans : ctrans array;  (* all transitions, indexed by [tr_id] *)
  p_locs : cloc array;
  p_restart : bool;
  p_owned : int array;
}

type t = {
  net : Network.t;
  cprocs : cproc array;
  cflows : (int * cvalue) array;  (* (target, expr), readers after writers *)
  participants : int array array;  (* per event, [Network.participants] *)
  (* Flow cone indexes, by flow index into [cflows]: *)
  var_readers : int array array;  (* flows reading each variable *)
  var_hits : int array array;
      (* flows a discrete write to each variable invalidates: its
         readers and, for a flow target, the flow that overwrites it *)
  loc_readers : int array array;  (* flows with a [Loc] atom on each process *)
  time_flows : int array;  (* flows reading or writing a time-varying variable *)
  inits : Value.t array;
  clocks : (int * int) array;  (* (var, owner + 1); 0 = unowned *)
  timed : Bytes.t;  (* flags the variables a rate can be non-zero for *)
  timed_vars : int array;  (* the same, ascending *)
  n_vars : int;
  n_procs : int;
  (* The processes each per-process pass visits, in order: those whose
     tables give the pass something to do in some location, plus every
     process whose activity condition could raise — skipping its
     evaluation would change which exception a step raises. *)
  inv_procs : int array;  (* a non-trivial invariant *)
  deriv_procs : int array;  (* a location derivative *)
  markov_procs : int array;  (* a rate transition *)
  tau_procs : int array;  (* a guarded τ transition *)
  step_procs : int array;  (* the restart policy: [step]'s activity passes *)
}

let network c = c.net

let compile (net : Network.t) : t =
  Slimsim_obs.Phase.run "stage" @@ fun () ->
  let n_events = Array.length net.events in
  let compile_updates ups =
    Array.of_list (List.map (fun (v, e) -> (v, compile_value e)) ups)
  in
  let n_vars = Array.length net.vars and n_procs = Array.length net.procs in
  (* Variables whose value can change with time passage: clocks,
     continuous variables and anything a location gives a derivative. *)
  let timed = Bytes.make n_vars '\000' in
  Array.iteri
    (fun v (info : Network.var_info) ->
      if info.kind <> Network.Discrete then Bytes.set timed v '\001')
    net.vars;
  Array.iter
    (fun (proc : Automaton.t) ->
      Array.iter
        (fun (loc : Automaton.location) ->
          List.iter (fun (v, _) -> Bytes.set timed v '\001') loc.Automaton.derivs)
        proc.locations)
    net.procs;
  let untimed v = Bytes.get timed v = '\000' in
  let trivially_full : csat = fun _ -> I.full in
  let no_candidates : ctrans array array = Array.make (max n_events 1) [||] in
  let cprocs =
    Array.mapi
      (fun p (proc : Automaton.t) ->
        let meta = net.meta.(p) in
        let p_trans =
          Array.mapi
            (fun i (tr : Automaton.transition) ->
                 {
                   tr_id = i;
                   t_dst = tr.Automaton.dst;
                   t_guard =
                     (match tr.Automaton.guard with
                     | Automaton.Guard g -> compile_sat g
                     | Automaton.Rate _ -> trivially_full);
                   t_win =
                     (match tr.Automaton.guard with
                     | Automaton.Guard g -> compile_writer ~untimed g
                     | Automaton.Rate _ -> None);
                   t_rate =
                     (match tr.Automaton.guard with
                     | Automaton.Rate r -> r
                     | Automaton.Guard _ -> 0.0);
                   t_updates = compile_updates tr.Automaton.updates;
                 })
            proc.transitions
        in
        let p_locs =
          Array.mapi
            (fun l (loc : Automaton.location) ->
              let out = proc.outgoing.(l) in
              let pick f =
                Array.of_list
                  (List.filter_map
                     (fun ti ->
                       let tr = proc.transitions.(ti) in
                       if f tr then Some p_trans.(ti) else None)
                     out)
              in
              let tau =
                pick (fun tr ->
                    match tr.Automaton.label, tr.Automaton.guard with
                    | Automaton.Tau, Automaton.Guard _ -> true
                    | _ -> false)
              in
              let markov =
                pick (fun tr ->
                    match tr.Automaton.guard with
                    | Automaton.Rate _ -> true
                    | Automaton.Guard _ -> false)
              in
              let has_events =
                List.exists
                  (fun ti ->
                    match proc.transitions.(ti).Automaton.label with
                    | Automaton.Event _ -> true
                    | Automaton.Tau -> false)
                  out
              in
              let by_event =
                if not has_events then no_candidates
                else
                  Array.init n_events (fun e ->
                      pick (fun tr ->
                          match tr.Automaton.label, tr.Automaton.guard with
                          | Automaton.Event e', Automaton.Guard _ -> e' = e
                          | _ -> false))
              in
              {
                inv_trivial = loc.Automaton.invariant = Expr.true_;
                inv_sat = compile_sat loc.Automaton.invariant;
                inv_win = compile_writer ~untimed loc.Automaton.invariant;
                inv_bool = compile_bool loc.Automaton.invariant;
                l_derivs = Array.of_list loc.Automaton.derivs;
                tau;
                by_event;
                markov;
              })
            proc.locations
        in
        {
          active_trivial = meta.Network.active_when = Expr.true_;
          active = compile_bool meta.Network.active_when;
          p_initial = proc.Automaton.initial_loc;
          p_trans;
          p_locs;
          p_restart = meta.Network.reactivation = Network.Restart;
          p_owned = Array.of_list meta.Network.owned_vars;
        })
      net.procs
  in
  (* Reader indexes in one pass over the sorted flows.  Flow [i] is
     visited whole before flow [i + 1], so a repeated read shows up as
     [i] at the head of the list and is skipped without sorting. *)
  let var_writer = Array.make n_vars (-1) in
  Array.iteri (fun i (f : Network.flow) -> var_writer.(f.target) <- i) net.flows;
  let readers = Array.make n_vars [] and loc_rd = Array.make n_procs [] in
  let time_rd = ref [] in
  let push (tbl : int list array) k (i : int) =
    match tbl.(k) with j :: _ when j = i -> () | l -> tbl.(k) <- i :: l
  in
  Array.iteri
    (fun i (f : Network.flow) ->
      let touches_time = ref (Bytes.get timed f.target <> '\000') in
      let rec walk : Expr.t -> unit = function
        | Const _ -> ()
        | Var v ->
          if var_writer.(v) >= i then
            invalid_arg "Compiled.compile: flows are not in reader-after-writer order";
          if Bytes.get timed v <> '\000' then touches_time := true;
          push readers v i
        | Loc (p, _) -> push loc_rd p i
        | Unop (_, e) -> walk e
        | Binop (_, e1, e2) -> walk e1; walk e2
        | Ite (e1, e2, e3) -> walk e1; walk e2; walk e3
      in
      walk f.expr;
      if !touches_time then time_rd := i :: !time_rd)
    net.flows;
  let rev_array l = Array.of_list (List.rev l) in
  let var_readers = Array.map rev_array readers in
  (* Activity conditions built from locations and Boolean constants
     cannot raise. *)
  let rec quiet : Expr.t -> bool = function
    | Const (Value.Bool _) | Loc _ -> true
    | Unop (Not, e) -> quiet e
    | Binop ((And | Or | Implies), e1, e2) -> quiet e1 && quiet e2
    | _ -> false
  in
  let procs_where f =
    Array.of_list
      (List.filter
         (fun p ->
           (not (quiet net.meta.(p).Network.active_when)) || f p cprocs.(p))
         (List.init n_procs Fun.id))
  in
  let some_loc f cp = Array.exists f cp.p_locs in
  {
    net;
    cprocs;
    cflows =
      Array.map (fun (f : Network.flow) -> (f.target, compile_value f.expr)) net.flows;
    participants = Array.map Array.of_list net.participants;
    var_readers;
    var_hits =
      Array.mapi
        (fun v r -> if var_writer.(v) < 0 then r else Array.append [| var_writer.(v) |] r)
        var_readers;
    loc_readers = Array.map rev_array loc_rd;
    time_flows = rev_array !time_rd;
    inits = Array.map (fun (v : Network.var_info) -> v.Network.init) net.vars;
    clocks =
      Array.of_list
        (List.filter_map
           (fun (v, (info : Network.var_info)) ->
             match info.kind with
             | Network.Clock ->
               Some (v, match info.owner with None -> 0 | Some p -> p + 1)
             | Network.Discrete | Network.Continuous -> None)
           (List.mapi (fun v info -> (v, info)) (Array.to_list net.vars)));
    timed;
    timed_vars =
      Array.of_list
        (List.filter (fun v -> Bytes.get timed v <> '\000') (List.init n_vars Fun.id));
    n_vars;
    n_procs;
    inv_procs = procs_where (fun _ -> some_loc (fun cl -> not cl.inv_trivial));
    deriv_procs = procs_where (fun _ -> some_loc (fun cl -> cl.l_derivs <> [||]));
    markov_procs = procs_where (fun _ -> some_loc (fun cl -> cl.markov <> [||]));
    tau_procs = procs_where (fun _ -> some_loc (fun cl -> cl.tau <> [||]));
    step_procs = procs_where (fun _ cp -> cp.p_restart);
  }

let proc_active c s p =
  let cp = c.cprocs.(p) in
  cp.active_trivial || cp.active s

(* ------------------------------------------------------------------ *)
(* Scratch-state operations                                           *)

let scratch c =
  let n = max c.n_vars 1 in
  let n_markov =
    Array.fold_left
      (fun acc cp ->
        acc + Array.fold_left (fun a cl -> a + Array.length cl.markov) 0 cp.p_locs)
      0 c.cprocs
  in
  make_cstate
    ~locs:(Array.make (max c.n_procs 1) 0)
    ~vals:(Array.make n vfalse) ~rates:(Array.make n 0.0) ~time:0.0
    ~n_flows:(Array.length c.cflows) ~n_markov:(max n_markov 1)

(* The flow cone.  Between flow passes the committed state is
   flow-consistent except where a mark or [time_stale] says otherwise:
   every flow target equals its expression evaluated on the state.  A
   pass evaluates the marked flows in topological order and marks the
   readers of each target it writes, so it leaves the same valuation as
   a full pass in the interpreter's order. *)

let[@inline] mark s i =
  if Bytes.get s.dirty i = '\000' then begin
    Bytes.set s.dirty i '\001';
    s.n_dirty <- s.n_dirty + 1
  end

let mark_each s (flows : int array) =
  for k = 0 to Array.length flows - 1 do
    mark s (Array.unsafe_get flows k)
  done

(* Most index entries are empty: test before paying for the call. *)
let[@inline] invalidate s (flows : int array) =
  if Array.length flows > 0 then mark_each s flows

let run_flows c s =
  if s.time_stale then begin
    invalidate s c.time_flows;
    s.time_stale <- false
  end;
  let n = Array.length c.cflows in
  let i = ref 0 in
  while s.n_dirty > 0 && !i < n do
    let k = !i in
    if Bytes.unsafe_get s.dirty k <> '\000' then begin
      Bytes.unsafe_set s.dirty k '\000';
      s.n_dirty <- s.n_dirty - 1;
      let target, ce = c.cflows.(k) in
      set_v s target (ce s);
      invalidate s c.var_readers.(target)
    end;
    incr i
  done

(* Drop marks left behind by a pass that raised. *)
let clear_marks s =
  if s.n_dirty > 0 then begin
    Bytes.fill s.dirty 0 (Bytes.length s.dirty) '\000';
    s.n_dirty <- 0
  end

let reset c s =
  for p = 0 to c.n_procs - 1 do
    s.locs.(p) <- c.cprocs.(p).p_initial
  done;
  Array.blit c.inits 0 s.vals 0 c.n_vars;
  Bytes.fill s.ftag 0 c.n_vars '\000';
  s.time.(0) <- 0.0;
  clear_marks s;
  for i = 0 to Array.length c.cflows - 1 do
    mark s i
  done;
  s.time_stale <- false;
  run_flows c s

(* Mirrors [State.rate_array]: clocks of active owners tick at 1, then
   location-specific derivatives of active processes override.  Only
   clocks and derivative targets are ever written, so only they need
   resetting. *)
let set_rates c s =
  let timed = c.timed_vars in
  for k = 0 to Array.length timed - 1 do
    s.rates.(timed.(k)) <- 0.0
  done;
  let clocks = c.clocks in
  for i = 0 to Array.length clocks - 1 do
    let v, owner = clocks.(i) in
    if owner = 0 || proc_active c s (owner - 1) then s.rates.(v) <- 1.0
  done;
  for k = 0 to Array.length c.deriv_procs - 1 do
    let p = c.deriv_procs.(k) in
    let cp = c.cprocs.(p) in
    if cp.active_trivial || cp.active s then begin
      let derivs = cp.p_locs.(s.locs.(p)).l_derivs in
      for i = 0 to Array.length derivs - 1 do
        let v, r = derivs.(i) in
        s.rates.(v) <- r
      done
    end
  done

(* Requires [s.rates] to hold the rate vector of the current state
   (callers refresh it once per step with [set_rates]).  Outside a trial
   only: the writes are not journaled. *)
let advance c s d =
  if d <> 0.0 then begin
    let timed = c.timed_vars in
    for k = 0 to Array.length timed - 1 do
      let v = timed.(k) in
      let r = s.rates.(v) in
      if r <> 0.0 then set_f s v (get_f s v +. (r *. d))
    done;
    s.time.(0) <- s.time.(0) +. d;
    s.time_stale <- true
  end

(* [advance] inside a trial: journal what it is about to write. *)
let advance_journaled c s d =
  let timed = c.timed_vars in
  for k = 0 to Array.length timed - 1 do
    if s.rates.(timed.(k)) <> 0.0 then journal_var s timed.(k)
  done;
  advance c s d

let apply_updates c s (ups : (int * cvalue) array) =
  for i = 0 to Array.length ups - 1 do
    let v, ce = ups.(i) in
    set_v s v (ce s);
    invalidate s c.var_hits.(v)
  done

let switch_loc c s p l =
  set_loc s p l;
  invalidate s c.loc_readers.(p)

let restart_proc c s p =
  let cp = c.cprocs.(p) in
  switch_loc c s p cp.p_initial;
  let owned = cp.p_owned in
  for i = 0 to Array.length owned - 1 do
    let v = owned.(i) in
    set_v s v c.inits.(v);
    invalidate s c.var_hits.(v)
  done

(* Trial execution: writes made between [begin_trial] and [end_trial]
   are journaled and undone.  Depth-1 only (no nesting); [s.rates] is
   deliberately shared, it belongs to the pre-trial state. *)
let begin_trial s =
  s.trial <- true;
  s.saved_time.(0) <- s.time.(0);
  s.saved_time_stale <- s.time_stale

let end_trial s =
  let nv = Array.length s.vals in
  for k = 0 to s.n_jv - 1 do
    let v = s.j_var.(k) in
    s.vals.(v) <- s.j_val.(k);
    s.fval.(v) <- s.j_fval.(k);
    Bytes.set s.ftag v (Bytes.get s.j_tag k);
    Bytes.set s.jmark v '\000'
  done;
  for k = 0 to s.n_jl - 1 do
    let p = s.j_proc.(k) in
    s.locs.(p) <- s.j_loc.(k);
    Bytes.set s.jmark (nv + p) '\000'
  done;
  s.n_jv <- 0;
  s.n_jl <- 0;
  s.trial <- false;
  s.time.(0) <- s.saved_time.(0);
  s.time_stale <- s.saved_time_stale;
  clear_marks s

let eval_bool_after c s ~cap (f : cbool) =
  begin_trial s;
  let r = try Ok (advance_journaled c s cap; f s) with e -> Error e in
  end_trial s;
  match r with Ok b -> b | Error e -> raise e

(* ------------------------------------------------------------------ *)
(* Moves (mirrors [Moves], table-driven)                              *)

(* Writers decline with [Fallback] (no writer) or [W.Nan_bound]; the
   window is then recomputed through the [csat] closures. *)
exception Fallback

let nonneg = I.at_least 0.0

(* [Moves.invariant_window] over the [csat] closures. *)
let invariant_set c s =
  let inv_set = ref I.full in
  for k = 0 to Array.length c.inv_procs - 1 do
    let p = c.inv_procs.(k) in
    let cp = c.cprocs.(p) in
    if cp.active_trivial || cp.active s then begin
      let cl = cp.p_locs.(s.locs.(p)) in
      if not cl.inv_trivial then inv_set := I.inter !inv_set (cl.inv_sat s)
    end
  done;
  match I.component_at 0.0 (I.inter !inv_set nonneg) with
  | None -> I.empty
  | Some iv -> I.make iv.I.lo iv.I.hi

let invariant_window c s =
  let w = s.inv_w in
  match
    W.set_full w 0;
    for k = 0 to Array.length c.inv_procs - 1 do
      let p = c.inv_procs.(k) in
      let cp = c.cprocs.(p) in
      if cp.active_trivial || cp.active s then begin
        let cl = cp.p_locs.(s.locs.(p)) in
        if not cl.inv_trivial then
          match cl.inv_win with Some wr -> wr s w 0 | None -> raise_notrace Fallback
      end
    done;
    W.meet_lo w 0 ~closed:true 0.0;
    (* [component_at 0.0] of a convex window *)
    if not (W.mem 0.0 w 0) then W.set_empty w 0
  with
  | () -> ()
  | exception (Fallback | W.Nan_bound) -> W.set_set w 0 (invariant_set c s)

let inv_window s = s.inv_w
let move_windows s = s.move_w
let goal_window s = s.goal_w

(* Window [i] of [w] := invariant window ∩ the guard's sat-set, through
   the writer when both are convex. *)
let guard_by_sets s tr w i = W.set_set w i (I.inter (W.to_set s.inv_w 0) (tr.t_guard s))

let guard_window s ~inv_convex tr w i =
  match tr.t_win with
  | Some wr when inv_convex -> (
    W.copy s.inv_w 0 w i;
    match wr s w i with () -> () | exception W.Nan_bound -> guard_by_sets s tr w i)
  | _ -> guard_by_sets s tr w i

let grow_ints a n =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Claim move slot [s.n_moves] (committed by incrementing [n_moves]). *)
let reserve_move s =
  let k = s.n_moves in
  if k >= Array.length s.mv_proc then begin
    W.ensure s.move_w (k + 1);
    s.mv_proc <- grow_ints s.mv_proc (k + 1);
    s.mv_tr <- grow_ints s.mv_tr (k + 1);
    s.mv_np <- grow_ints s.mv_np (k + 1)
  end;
  k

(* Every combination of the candidates of the [na] active participants
   of event [e], first participant slowest ([Moves]' cartesian order),
   whose joint window is non-empty. *)
let push_syncs s ~inv_convex e na =
  for j = 0 to na - 1 do
    s.odo.(j) <- 0
  done;
  let more = ref true in
  while !more do
    let k = reserve_move s in
    let convex = ref inv_convex in
    for j = 0 to na - 1 do
      if not (W.is_convex s.cand_w (s.cand_start.(j) + s.odo.(j))) then convex := false
    done;
    if !convex then begin
      W.copy s.inv_w 0 s.move_w k;
      for j = 0 to na - 1 do
        W.meet s.move_w k s.cand_w (s.cand_start.(j) + s.odo.(j))
      done
    end
    else begin
      let acc = ref (W.to_set s.inv_w 0) in
      for j = 0 to na - 1 do
        acc := I.inter !acc (W.to_set s.cand_w (s.cand_start.(j) + s.odo.(j)))
      done;
      W.set_set s.move_w k !acc
    end;
    if not (W.is_empty s.move_w k) then begin
      let off = s.n_parts in
      s.parts <- grow_ints s.parts (off + (2 * na));
      for j = 0 to na - 1 do
        s.parts.(off + (2 * j)) <- s.sync_procs.(j);
        s.parts.(off + (2 * j) + 1) <- s.cand_tr.(s.cand_start.(j) + s.odo.(j))
      done;
      s.n_parts <- off + (2 * na);
      s.mv_proc.(k) <- -1 - e;
      s.mv_tr.(k) <- off;
      s.mv_np.(k) <- na;
      s.n_moves <- k + 1
    end;
    (* next combination: the last participant's digit turns fastest *)
    let j = ref (na - 1) in
    while !j >= 0 && s.odo.(!j) + 1 = s.cand_n.(!j) do
      s.odo.(!j) <- 0;
      decr j
    done;
    if !j < 0 then more := false else s.odo.(!j) <- s.odo.(!j) + 1
  done

let discrete c s =
  s.n_moves <- 0;
  s.n_parts <- 0;
  if not (W.is_empty s.inv_w 0) then begin
    let inv_convex = W.is_convex s.inv_w 0 in
    (* Local τ moves, in process then outgoing order. *)
    for k = 0 to Array.length c.tau_procs - 1 do
      let p = c.tau_procs.(k) in
      let cp = c.cprocs.(p) in
      if cp.active_trivial || cp.active s then begin
        let tau = cp.p_locs.(s.locs.(p)).tau in
        for i = 0 to Array.length tau - 1 do
          let tr = tau.(i) in
          let k = reserve_move s in
          guard_window s ~inv_convex tr s.move_w k;
          if not (W.is_empty s.move_w k) then begin
            s.mv_proc.(k) <- p;
            s.mv_tr.(k) <- tr.tr_id;
            s.n_moves <- k + 1
          end
        done
      end
    done;
    (* Multiway synchronizations: every active participant must offer a
       candidate.  All activity conditions are evaluated before any
       guard, as in [Moves]. *)
    for e = 0 to Array.length c.participants - 1 do
      let parts = c.participants.(e) in
      let na = ref 0 in
      for j = 0 to Array.length parts - 1 do
        let p = parts.(j) in
        if proc_active c s p then begin
          s.sync_procs.(!na) <- p;
          incr na
        end
      done;
      let na = !na in
      if na > 0 then begin
        let n_cands = ref 0 and offered = ref true in
        for j = 0 to na - 1 do
          let p = s.sync_procs.(j) in
          let cands = c.cprocs.(p).p_locs.(s.locs.(p)).by_event.(e) in
          s.cand_start.(j) <- !n_cands;
          for i = 0 to Array.length cands - 1 do
            let k = !n_cands in
            if k >= Array.length s.cand_tr then begin
              W.ensure s.cand_w (k + 1);
              s.cand_tr <- grow_ints s.cand_tr (k + 1)
            end;
            guard_window s ~inv_convex cands.(i) s.cand_w k;
            if not (W.is_empty s.cand_w k) then begin
              s.cand_tr.(k) <- cands.(i).tr_id;
              n_cands := k + 1
            end
          done;
          s.cand_n.(j) <- !n_cands - s.cand_start.(j);
          if s.cand_n.(j) = 0 then offered := false
        done;
        if !offered then push_syncs s ~inv_convex e na
      end
    done
  end;
  s.n_moves

let move s i : Moves.move =
  let p = s.mv_proc.(i) in
  if p >= 0 then Moves.Local { proc = p; tr = s.mv_tr.(i) }
  else
    let off = s.mv_tr.(i) in
    Moves.Sync
      {
        event = -1 - p;
        parts =
          List.init s.mv_np.(i) (fun j ->
              (s.parts.(off + (2 * j)), s.parts.(off + (2 * j) + 1)));
      }

let timed_moves s =
  List.init s.n_moves (fun i -> { Moves.move = move s i; window = W.to_set s.move_w i })

let markovian c s =
  let n = ref 0 in
  for j = 0 to Array.length c.markov_procs - 1 do
    let p = c.markov_procs.(j) in
    let cp = c.cprocs.(p) in
    if cp.active_trivial || cp.active s then begin
      let markov = cp.p_locs.(s.locs.(p)).markov in
      for i = 0 to Array.length markov - 1 do
        let tr = markov.(i) in
        let k = !n in
        s.markov_buf.(k) <- tr.t_rate;
        s.markov_proc.(k) <- p;
        s.markov_tr.(k) <- tr.tr_id;
        n := k + 1
      done
    end
  done;
  !n

let markov_proc s k = s.markov_proc.(k)
let markov_tr s k = s.markov_tr.(k)

let invariants_hold c s =
  let ok = ref true in
  for k = 0 to Array.length c.inv_procs - 1 do
    let p = c.inv_procs.(k) in
    let cp = c.cprocs.(p) in
    if !ok && (cp.active_trivial || cp.active s) then begin
      let cl = cp.p_locs.(s.locs.(p)) in
      if (not cl.inv_trivial) && not (cl.inv_bool s) then ok := false
    end
  done;
  !ok

(* Mirrors [Moves.apply] after its advance: updates (participant order),
   location switches, flows, reactivation restarts, flows again.  Only
   the flow cone is evaluated, and the second pass runs only when a
   process restarted: without a restart it would rewrite every target
   with the value it already holds. *)
let begin_step c s =
  for k = 0 to Array.length c.step_procs - 1 do
    let p = c.step_procs.(k) in
    Bytes.set s.was_active p (if proc_active c s p then '\001' else '\000')
  done

let end_step c s =
  run_flows c s;
  let restarted = ref false in
  for k = 0 to Array.length c.step_procs - 1 do
    let p = c.step_procs.(k) in
    if
      Bytes.get s.was_active p = '\000'
      && proc_active c s p
      && c.cprocs.(p).p_restart
    then begin
      restart_proc c s p;
      restarted := true
    end
  done;
  if !restarted then run_flows c s

let step_local c s p tr =
  begin_step c s;
  let ct = c.cprocs.(p).p_trans.(tr) in
  apply_updates c s ct.t_updates;
  switch_loc c s p ct.t_dst;
  end_step c s

(* Buffered move [i]. *)
let step_move c s i =
  let p = s.mv_proc.(i) in
  if p >= 0 then step_local c s p s.mv_tr.(i)
  else begin
    begin_step c s;
    let off = s.mv_tr.(i) and np = s.mv_np.(i) in
    for j = 0 to np - 1 do
      let p = s.parts.(off + (2 * j)) and ti = s.parts.(off + (2 * j) + 1) in
      apply_updates c s c.cprocs.(p).p_trans.(ti).t_updates
    done;
    for j = 0 to np - 1 do
      let p = s.parts.(off + (2 * j)) and ti = s.parts.(off + (2 * j) + 1) in
      switch_loc c s p c.cprocs.(p).p_trans.(ti).t_dst
    done;
    end_step c s
  end

let apply c s ?(delay = 0.0) (move : Moves.move) =
  advance c s delay;
  match move with
  | Moves.Local { proc; tr } -> step_local c s proc tr
  | Moves.Sync { parts; _ } ->
    begin_step c s;
    List.iter
      (fun (p, ti) -> apply_updates c s c.cprocs.(p).p_trans.(ti).t_updates)
      parts;
    List.iter (fun (p, ti) -> switch_loc c s p c.cprocs.(p).p_trans.(ti).t_dst) parts;
    end_step c s

let fire c s i = step_move c s i

let fire_markov c s ~delay k =
  advance c s delay;
  step_local c s s.markov_proc.(k) s.markov_tr.(k)

(* Keeps, in order and compacted to the front of the buffer, the moves
   whose window contains [d] and whose trial landing state satisfies
   the invariants.  Window slots are not moved. *)
let enabled_after c s d =
  let kept = ref 0 in
  for i = 0 to s.n_moves - 1 do
    if W.mem d s.move_w i then begin
      begin_trial s;
      let ok =
        try
          step_move c s i;
          invariants_hold c s
        with e ->
          end_trial s;
          raise e
      in
      end_trial s;
      if ok then begin
        let k = !kept in
        s.mv_proc.(k) <- s.mv_proc.(i);
        s.mv_tr.(k) <- s.mv_tr.(i);
        s.mv_np.(k) <- s.mv_np.(i);
        kept := k + 1
      end
    end
  done;
  s.n_moves <- !kept;
  !kept

(* ------------------------------------------------------------------ *)
(* Formulas (goal / hold properties)                                  *)

type formula = {
  f_expr : Expr.t;
  f_trivial : bool;  (* the formula is literally [true] *)
  f_bool : cbool;
  f_sat : csat;
  f_win : cwin array option;
}

let compile_formula c e =
  {
    f_expr = e;
    f_trivial = e = Expr.true_;
    f_bool = compile_bool e;
    f_sat = compile_sat e;
    f_win = compile_disjuncts ~untimed:(fun v -> Bytes.get c.timed v = '\000') e;
  }

let formula_first_point s f ~eps ~cap =
  match f.f_win with
  | None -> -1
  | Some ws -> (
    let w = s.goal_w and n = Array.length ws in
    W.ensure w n;
    match
      for k = 0 to n - 1 do
        W.set_full w k;
        ws.(k) s w k
      done
    with
    | () ->
      if Float.is_nan cap then -1
      else if W.first_point_union ~eps w ~n ~cap then 1
      else 0
    | exception W.Nan_bound -> -1)

(* ------------------------------------------------------------------ *)
(* Interop with the immutable reference representation               *)

let to_state c s : State.t =
  {
    State.locs = Array.sub s.locs 0 c.n_procs;
    vals = Array.init c.n_vars (fun v -> get_v s v);
    time = s.time.(0);
  }
