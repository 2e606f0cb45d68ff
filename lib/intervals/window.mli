(** Flat delay windows: {!Interval_set}'s step-loop arithmetic on
    preallocated slots, without allocating.

    A table holds numbered slots.  A slot is either {e convex} — one
    interval or the empty set, kept as two bound values and two bound
    kinds — or {e general}, an {!Interval_set.t} stored as is.  Every
    operation repeats the list code's comparisons, tie-breaks and
    left-to-right sums, so reading a slot here yields the floats the
    same window yields through {!Interval_set}.

    Convex slots never hold a NaN bound: {!meet_lo} and {!meet_cmp}
    raise {!Nan_bound} instead of storing one, and
    {!set_set} stores a set with a NaN bound as general.  Without NaN,
    bound comparison is a total preorder, so meeting many bounds left
    to right picks the bound any bracketing of {!Interval_set.inter}
    over them picks, and the meet is empty exactly when one of the
    partial intersections is.

    Functions that answer an optional float return [true] and leave the
    value in {!point}, or return [false]. *)

type t

exception Nan_bound

val create : int -> t
(** A table of at least [n] slots. *)

val ensure : t -> int -> unit
(** Grow to at least [n] slots, keeping their contents. *)

val point : t -> float
(** The value of the last query that returned [true]. *)

(** {1 Writing slots} *)

val set_full : t -> int -> unit
val set_empty : t -> int -> unit

val set_set : t -> int -> Interval_set.t -> unit
(** Store a set: convex when it has at most one component and no NaN
    bound, general otherwise. *)

val copy : t -> int -> t -> int -> unit
(** [copy src i dst j] makes slot [j] of [dst] a copy of slot [i] of
    [src]. *)

val meet_lo : t -> int -> closed:bool -> float -> unit
(** [Interval_set.inter slot [x, +inf)], the bound open unless
    [closed]; ties keep the slot's bound.  The slot must be convex. *)

val meet : t -> int -> t -> int -> unit
(** [meet dst i src j]: [Interval_set.inter] of two convex slots into
    [dst]'s slot [i], ties to [dst]. *)

(** Comparison codes of {!meet_cmp}. *)

val cmp_lt : int
val cmp_le : int
val cmp_gt : int
val cmp_ge : int
val cmp_eq : int

val meet_cmp : t -> int -> op:int -> neg:bool -> float array -> unit
(** [meet_cmp t i ~op ~neg ab] intersects the convex slot with the
    delay sat-set of [a + b·d ⋈ 0], [a = ab.(0)] and [b = ab.(1)]
    ([Linear.solve_cmp]), or with its complement when [neg] ([neg]
    only with the order codes). *)

(** {1 Reading slots} *)

val is_convex : t -> int -> bool
val is_empty : t -> int -> bool
val to_set : t -> int -> Interval_set.t
val mem : float -> t -> int -> bool

val sup_unbounded : t -> int -> bool
(** [Interval_set.sup w = Pos_inf]. *)

val sup_fin : t -> int -> bool
(** [Interval_set.sup w = Fin (b, _)], with [b] in {!point}. *)

val first_point_min : eps:float -> t -> n:int -> bool
(** The least [Interval_set.first_point ~eps] over slots [0 .. n - 1]
    (folded with [Float.min] from [infinity], in slot order), when it
    is finite. *)

val last_point_below : eps:float -> float -> t -> int -> bool
(** [Interval_set.last_point_below ~eps cap]. *)

val first_point_union : eps:float -> t -> n:int -> cap:float -> bool
(** [Interval_set.first_point ~eps (inter u (closed 0.0 cap))] where
    [u] is the union of the convex slots [0 .. n - 1], folded left from
    the empty set. *)

val sample_union : t -> first:int -> n:int -> cap:float -> (float -> float) -> bool
(** [Interval_set.sample_uniform u01 w] where [w] is the union of slots
    [first .. first + n - 1], folded left from the empty set, and
    clamped to [(-inf, cap]] when it is unbounded.  [u01 m] draws from
    [[0, m)]. *)
