(* Flat delay windows (see window.mli).  The helpers below repeat
   [Interval_set]'s bound order ([cmp_lower], [cmp_upper]), emptiness
   ([nonempty]) and adjacency ([joins]) on (kind, value) pairs; they
   are inlined so that no float is boxed on the way. *)

module I = Interval_set

exception Nan_bound

(* Comparison codes of [meet_cmp]. *)
let cmp_lt = 0
let cmp_le = 1
let cmp_gt = 2
let cmp_ge = 3
let cmp_eq = 4

(* Bound kinds.  [general] in a lower-kind byte marks a general slot. *)
let neg_inf = '\000'
let fin_open = '\001'
let fin_closed = '\002'
let pos_inf = '\003'
let general = '\004'

(* A run of intervals in the union/clamp sweeps, normalized or as
   [Interval_set.inter] emits them. *)
type run = {
  mutable n : int;
  mutable rlo : float array;
  mutable rhi : float array;
  mutable rk : Bytes.t;  (* [2j] lower kind, [2j + 1] upper kind *)
}

type t = {
  mutable lo : float array;
  mutable hi : float array;
  mutable kinds : Bytes.t;  (* [2i] lower kind, [2i + 1] upper kind *)
  mutable sets : I.t array;  (* the set of a general slot *)
  mutable cur : run;
  mutable nxt : run;
  res : float array;  (* the last optional-float result, see [point] *)
}

let new_run cap =
  {
    n = 0;
    rlo = Array.make cap 0.0;
    rhi = Array.make cap 0.0;
    rk = Bytes.make (2 * cap) neg_inf;
  }

let create n =
  let n = max n 1 in
  {
    lo = Array.make n 0.0;
    hi = Array.make n 0.0;
    kinds = Bytes.make (2 * n) neg_inf;
    sets = Array.make n I.empty;
    cur = new_run 4;
    nxt = new_run 4;
    res = [| 0.0 |];
  }

let grow_floats a n =
  let b = Array.make n 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bytes a n =
  let b = Bytes.make n neg_inf in
  Bytes.blit a 0 b 0 (Bytes.length a);
  b

let ensure t n =
  let cap = Array.length t.lo in
  if n > cap then begin
    let cap = max n (2 * cap) in
    t.lo <- grow_floats t.lo cap;
    t.hi <- grow_floats t.hi cap;
    t.kinds <- grow_bytes t.kinds (2 * cap);
    let sets = Array.make cap I.empty in
    Array.blit t.sets 0 sets 0 (Array.length t.sets);
    t.sets <- sets
  end

let point t = t.res.(0)

let[@inline] found t x =
  t.res.(0) <- x;
  true

(* ------------------------------------------------------------------ *)
(* [Interval_set]'s bound order, on (kind, value) pairs                *)

let[@inline] is_fin k = k = fin_open || k = fin_closed

let[@inline] cmp_lower k1 (x1 : float) k2 (x2 : float) =
  if k1 = neg_inf then if k2 = neg_inf then 0 else -1
  else if k2 = neg_inf then 1
  else if k1 = pos_inf then if k2 = pos_inf then 0 else 1
  else if k2 = pos_inf then -1
  else if x1 < x2 then -1
  else if x1 > x2 then 1
  else Char.code k2 - Char.code k1 (* closed first *)

let[@inline] cmp_upper k1 (x1 : float) k2 (x2 : float) =
  if k1 = neg_inf then if k2 = neg_inf then 0 else -1
  else if k2 = neg_inf then 1
  else if k1 = pos_inf then if k2 = pos_inf then 0 else 1
  else if k2 = pos_inf then -1
  else if x1 < x2 then -1
  else if x1 > x2 then 1
  else Char.code k1 - Char.code k2 (* open first *)

let[@inline] nonempty lk (lo : float) hk (hi : float) =
  if lk = pos_inf || hk = neg_inf then false
  else if lk = neg_inf || hk = pos_inf then true
  else lo < hi || (lo = hi && lk = fin_closed && hk = fin_closed)

let[@inline] joins hk (hi : float) lk (lo : float) =
  if hk = pos_inf || lk = neg_inf then true
  else if hk = neg_inf || lk = pos_inf then false
  else hi > lo || (hi = lo && (hk = fin_closed || lk = fin_closed))

let kind_of_bound = function
  | I.Neg_inf -> neg_inf
  | I.Fin (_, false) -> fin_open
  | I.Fin (_, true) -> fin_closed
  | I.Pos_inf -> pos_inf

let value_of_bound = function I.Fin (x, _) -> x | I.Neg_inf | I.Pos_inf -> 0.0

let bound_of k x =
  if k = neg_inf then I.Neg_inf
  else if k = pos_inf then I.Pos_inf
  else I.Fin (x, k = fin_closed)

(* ------------------------------------------------------------------ *)
(* Slots                                                              *)

let[@inline] lk t i = Bytes.unsafe_get t.kinds (2 * i)
let[@inline] hk t i = Bytes.unsafe_get t.kinds ((2 * i) + 1)

let[@inline] set_bounds t i lkind lo hkind hi =
  Bytes.set t.kinds (2 * i) lkind;
  Bytes.set t.kinds ((2 * i) + 1) hkind;
  t.lo.(i) <- lo;
  t.hi.(i) <- hi

let set_full t i = set_bounds t i neg_inf 0.0 pos_inf 0.0
let set_empty t i = set_bounds t i pos_inf 0.0 neg_inf 0.0

let is_convex t i = lk t i <> general

let is_empty t i =
  if is_convex t i then not (nonempty (lk t i) t.lo.(i) (hk t i) t.hi.(i))
  else I.is_empty t.sets.(i)

let has_nan_bound s =
  List.exists
    (fun (iv : I.interval) ->
      Float.is_nan (value_of_bound iv.I.lo) || Float.is_nan (value_of_bound iv.I.hi))
    (I.intervals s)

let set_set t i s =
  match I.intervals s with
  | [] -> set_empty t i
  | [ iv ] when not (has_nan_bound s) ->
    set_bounds t i (kind_of_bound iv.I.lo) (value_of_bound iv.I.lo)
      (kind_of_bound iv.I.hi) (value_of_bound iv.I.hi)
  | _ ->
    Bytes.set t.kinds (2 * i) general;
    t.sets.(i) <- s

let to_set t i =
  if is_convex t i then I.make (bound_of (lk t i) t.lo.(i)) (bound_of (hk t i) t.hi.(i))
  else t.sets.(i)

let copy src i dst j =
  Bytes.set dst.kinds (2 * j) (lk src i);
  Bytes.set dst.kinds ((2 * j) + 1) (hk src i);
  dst.lo.(j) <- src.lo.(i);
  dst.hi.(j) <- src.hi.(i);
  if not (is_convex src i) then dst.sets.(j) <- src.sets.(i)

(* [Interval_set.inter] of a convex slot (left operand) with one bound
   of a convex right operand: [max_lower] / [min_upper], ties to the
   slot. *)
let[@inline] meet_lo t i ~closed x =
  if Float.is_nan x then raise Nan_bound;
  let k = if closed then fin_closed else fin_open in
  if cmp_lower (lk t i) t.lo.(i) k x < 0 then begin
    Bytes.set t.kinds (2 * i) k;
    t.lo.(i) <- x
  end

let[@inline] meet_hi t i ~closed x =
  if Float.is_nan x then raise Nan_bound;
  let k = if closed then fin_closed else fin_open in
  if cmp_upper (hk t i) t.hi.(i) k x > 0 then begin
    Bytes.set t.kinds ((2 * i) + 1) k;
    t.hi.(i) <- x
  end

(* [Interval_set.inter slot (Linear.solve_cmp op {a; b})], complemented
   when [neg]: the sat-set of [a + b·d ⋈ 0] is a half-line ([b <> 0],
   its root ending it), a point ([=]), or everything or nothing.  The
   complement of a half-line is the opposite half-line with the root's
   inclusion flipped. *)
let meet_cmp t i ~op ~neg (ab : float array) =
  let a = ab.(0) and b = ab.(1) in
  if b = 0.0 then begin
    let holds =
      match op with
      | 0 -> a < 0.0
      | 1 -> a <= 0.0
      | 2 -> a > 0.0
      | 3 -> a >= 0.0
      | _ -> a = 0.0
    in
    if holds = neg then set_empty t i
  end
  else begin
    let root = -.a /. b in
    if op = cmp_eq then begin
      meet_lo t i ~closed:true root;
      meet_hi t i ~closed:true root
    end
    else begin
      let below = (op = cmp_lt || op = cmp_le) <> neg
      and closed = (op = cmp_le || op = cmp_ge) <> neg in
      if (b > 0.0) = below then meet_hi t i ~closed root else meet_lo t i ~closed root
    end
  end

let meet dst i src j =
  let k = lk src j in
  if cmp_lower (lk dst i) dst.lo.(i) k src.lo.(j) < 0 then begin
    Bytes.set dst.kinds (2 * i) k;
    dst.lo.(i) <- src.lo.(j)
  end;
  let k = hk src j in
  if cmp_upper (hk dst i) dst.hi.(i) k src.hi.(j) > 0 then begin
    Bytes.set dst.kinds ((2 * i) + 1) k;
    dst.hi.(i) <- src.hi.(j)
  end

(* ------------------------------------------------------------------ *)
(* Queries, each the [Interval_set] function of the same name          *)

let[@inline] in_iv (x : float) lk (lo : float) hk (hi : float) =
  (if lk = neg_inf then true
   else if lk = fin_closed then x >= lo
   else if lk = fin_open then x > lo
   else false)
  &&
  if hk = pos_inf then true
  else if hk = fin_closed then x <= hi
  else if hk = fin_open then x < hi
  else false

let mem x t i =
  if is_convex t i then
    let lk = lk t i and hk = hk t i and lo = t.lo.(i) and hi = t.hi.(i) in
    nonempty lk lo hk hi && in_iv x lk lo hk hi
  else I.mem x t.sets.(i)

let sup_unbounded t i =
  if is_convex t i then nonempty (lk t i) t.lo.(i) (hk t i) t.hi.(i) && hk t i = pos_inf
  else I.sup t.sets.(i) = I.Pos_inf

let of_option t = function Some x -> found t x | None -> false

let sup_fin t i =
  if is_convex t i then
    nonempty (lk t i) t.lo.(i) (hk t i) t.hi.(i) && is_fin (hk t i) && found t t.hi.(i)
  else
    match I.sup t.sets.(i) with I.Fin (b, _) -> found t b | I.Neg_inf | I.Pos_inf -> false

let[@inline] nudge_up ~eps (a : float) hk (hi : float) =
  if hk = pos_inf then a +. eps
  else if a +. eps < hi then a +. eps
  else a +. ((hi -. a) /. 2.0)

let[@inline] nudge_down ~eps (b : float) lk (lo : float) =
  if lk = neg_inf then b -. eps
  else if b -. eps > lo then b -. eps
  else b -. ((b -. lo) /. 2.0)

let first_point ~eps t i =
  if is_convex t i then begin
    let lk = lk t i and hk = hk t i and lo = t.lo.(i) and hi = t.hi.(i) in
    if not (nonempty lk lo hk hi) then false
    else if lk = fin_closed then found t lo
    else if lk = fin_open then found t (nudge_up ~eps lo hk hi)
    else false
  end
  else of_option t (I.first_point ~eps t.sets.(i))

let first_point_min ~eps t ~n =
  let d = ref infinity in
  for i = 0 to n - 1 do
    if first_point ~eps t i then d := Float.min !d t.res.(0)
  done;
  !d <> infinity && found t !d

let last_point_below ~eps cap t i =
  if is_convex t i then begin
    let lk = lk t i and hk = hk t i and lo = t.lo.(i) and hi = t.hi.(i) in
    (* [clamp_above cap [lo, hi]]: the lower bound survives its meet
       with [Neg_inf]; the upper one meets [cap], ties to the slot. *)
    if not (nonempty lk lo hk hi) then false
    else if cmp_upper hk hi fin_closed cap <= 0 then
      if hk = fin_closed then found t hi
      else if hk = fin_open then found t (nudge_down ~eps hi lk lo)
      else false
    else nonempty lk lo fin_closed cap && found t cap
  end
  else of_option t (I.last_point_below ~eps cap t.sets.(i))

(* ------------------------------------------------------------------ *)
(* Union, clamp and uniform sampling over a range of slots             *)

let run_ensure r n =
  let cap = Array.length r.rlo in
  if n > cap then begin
    let cap = max n (2 * cap) in
    r.rlo <- grow_floats r.rlo cap;
    r.rhi <- grow_floats r.rhi cap;
    r.rk <- grow_bytes r.rk (2 * cap)
  end

let[@inline] append r lk lo hk hi =
  let n = r.n in
  run_ensure r (n + 1);
  Bytes.unsafe_set r.rk (2 * n) lk;
  Bytes.unsafe_set r.rk ((2 * n) + 1) hk;
  r.rlo.(n) <- lo;
  r.rhi.(n) <- hi;
  r.n <- n + 1

(* One step of [Interval_set.normalize]: extend the previous interval
   when the new one joins it, else append. *)
let[@inline] push r lk lo hk hi =
  let n = r.n in
  if n > 0 && joins (Bytes.get r.rk ((2 * n) - 1)) r.rhi.(n - 1) lk lo then begin
    let pk = Bytes.get r.rk ((2 * n) - 1) in
    if cmp_upper pk r.rhi.(n - 1) hk hi < 0 then begin
      Bytes.set r.rk ((2 * n) - 1) hk;
      r.rhi.(n - 1) <- hi
    end
  end
  else append r lk lo hk hi

let push_run r src j =
  push r
    (Bytes.get src.rk (2 * j))
    src.rlo.(j)
    (Bytes.get src.rk ((2 * j) + 1))
    src.rhi.(j)

let swap t =
  let r = t.cur in
  t.cur <- t.nxt;
  t.nxt <- r

(* [union cur w] for a convex [w]: [List.merge] by lower bound (ties to
   [cur]), then normalize. *)
let union_convex t i =
  let cur = t.cur and nxt = t.nxt in
  let wk = lk t i and wlo = t.lo.(i) and whk = hk t i and whi = t.hi.(i) in
  nxt.n <- 0;
  if nonempty wk wlo whk whi then begin
    let placed = ref false in
    for j = 0 to cur.n - 1 do
      if (not !placed) && cmp_lower (Bytes.get cur.rk (2 * j)) cur.rlo.(j) wk wlo > 0
      then begin
        push nxt wk wlo whk whi;
        placed := true
      end;
      push_run nxt cur j
    done;
    if not !placed then push nxt wk wlo whk whi
  end
  else for j = 0 to cur.n - 1 do push_run nxt cur j done;
  swap t

let union_general t s =
  let cur = t.cur and nxt = t.nxt in
  nxt.n <- 0;
  let push_iv (iv : I.interval) =
    push nxt (kind_of_bound iv.I.lo) (value_of_bound iv.I.lo) (kind_of_bound iv.I.hi)
      (value_of_bound iv.I.hi)
  in
  let rec go j = function
    | [] -> for j = j to cur.n - 1 do push_run nxt cur j done
    | (iv : I.interval) :: rest as l ->
      if j >= cur.n then List.iter push_iv l
      else if
        cmp_lower (Bytes.get cur.rk (2 * j)) cur.rlo.(j) (kind_of_bound iv.I.lo)
          (value_of_bound iv.I.lo)
        <= 0
      then begin
        push_run nxt cur j;
        go (j + 1) l
      end
      else begin
        push_iv iv;
        go j rest
      end
  in
  go 0 (I.intervals s);
  swap t

let run_bounded r =
  r.n = 0 || (is_fin (Bytes.get r.rk 0) && is_fin (Bytes.get r.rk ((2 * r.n) - 1)))

(* [clamp_above cap] = [inter cur (at_most cap)]: the sweep stops after
   the first interval ending past [cap]. *)
let clamp_above t cap =
  let cur = t.cur and nxt = t.nxt in
  nxt.n <- 0;
  let j = ref 0 in
  while !j < cur.n do
    let k = !j in
    let lk = Bytes.get cur.rk (2 * k) and lo = cur.rlo.(k) in
    let hk = Bytes.get cur.rk ((2 * k) + 1) and hi = cur.rhi.(k) in
    (* The lower bound survives its meet with [Neg_inf]. *)
    if cmp_upper hk hi fin_closed cap <= 0 then begin
      if nonempty lk lo hk hi then append nxt lk lo hk hi;
      incr j
    end
    else begin
      if nonempty lk lo fin_closed cap then append nxt lk lo fin_closed cap;
      j := cur.n
    end
  done;
  swap t

let[@inline] width r j =
  let lk = Bytes.get r.rk (2 * j) and hk = Bytes.get r.rk ((2 * j) + 1) in
  if is_fin lk && is_fin hk then r.rhi.(j) -. r.rlo.(j) else infinity

let sample_uniform t u01 =
  let r = t.cur in
  if r.n = 0 || not (run_bounded r) then false
  else begin
    let m = ref 0.0 in
    for j = 0 to r.n - 1 do
      m := !m +. width r j
    done;
    let m = !m in
    if m <= 0.0 then is_fin (Bytes.get r.rk 0) && found t r.rlo.(0)
    else begin
      let x = ref (u01 m) and j = ref 0 and picked = ref 0 in
      (* [picked]: 0 = still looking, 1 = found, 2 = gave up *)
      while !picked = 0 && !j < r.n do
        let w = width r !j in
        if !x <= w then
          picked :=
            if is_fin (Bytes.get r.rk (2 * !j)) && found t (r.rlo.(!j) +. !x) then 1
            else 2
        else begin
          x := !x -. w;
          incr j
        end
      done;
      !picked = 1 || (is_fin (Bytes.get r.rk ((2 * r.n) - 1)) && found t r.rhi.(r.n - 1))
    end
  end

(* [Interval_set.first_point ~eps (inter run [0, cap])]: the sweep of
   [inter] stops at the first interval it emits, or after the first
   one ending past [cap]. *)
let first_point_clipped ~eps t ~cap =
  let r = t.cur in
  let j = ref 0 and res = ref 0 in
  (* [res]: 0 = still sweeping, 1 = found, 2 = none *)
  while !res = 0 do
    if !j >= r.n then res := 2
    else begin
      let k = !j in
      let lk = Bytes.get r.rk (2 * k) and lo = r.rlo.(k) in
      let hk = Bytes.get r.rk ((2 * k) + 1) and hi = r.rhi.(k) in
      let keep_lo = cmp_lower lk lo fin_closed 0.0 >= 0 in
      let keep_hi = cmp_upper hk hi fin_closed cap <= 0 in
      let clk = if keep_lo then lk else fin_closed
      and clo = if keep_lo then lo else 0.0
      and chk = if keep_hi then hk else fin_closed
      and chi = if keep_hi then hi else cap in
      if nonempty clk clo chk chi then
        res :=
          if clk = fin_closed then if found t clo then 1 else 2
          else if clk = fin_open then
            if found t (nudge_up ~eps clo chk chi) then 1 else 2
          else 2
      else if keep_hi then incr j
      else res := 2
    end
  done;
  !res = 1

let first_point_union ~eps t ~n ~cap =
  t.cur.n <- 0;
  for i = 0 to n - 1 do
    union_convex t i
  done;
  first_point_clipped ~eps t ~cap

let sample_union t ~first ~n ~cap u01 =
  t.cur.n <- 0;
  for i = first to first + n - 1 do
    if is_convex t i then union_convex t i else union_general t t.sets.(i)
  done;
  if not (run_bounded t.cur) then clamp_above t cap;
  sample_uniform t u01
