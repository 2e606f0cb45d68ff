(* Machine-speed calibration.

   On a shared host the speed of the whole machine drifts in phases of
   several seconds (other tenants contend for caches and memory), which
   moves every wall time of a run together, by a third in the worst
   runs seen.  The benchmark therefore runs a fixed calibration kernel
   between the units of work it times — between queries, between
   submission batches — and reports the run at reference speed:
   scaled = raw × reference / k, with k the median kernel time over all
   the points taken in the run.  One factor per run, not per unit: a
   single kernel point is noisier than the drift it would correct,
   while the median over many points spread through the run tracks the
   drift between runs.

   The kernel uses only the standard library, so no change to the
   program under test changes the work it does.  It allocates and walks
   small structures (a balanced map, a sorted list, a string-keyed hash
   table), the kind of work the parser and the simulator do; a
   non-allocating pointer chase tracked the drift far worse.  Unscaled
   medians are printed beside the scaled ones. *)

module IM = Map.Make (Int)

(* Seconds one kernel run takes at reference speed: about its time on
   a 2-CPU x86-64 container in an uncontended phase.  Only the scale of
   the reported times depends on it. *)
let reference = 0.001

let kernel_once () =
  let t0 = Unix.gettimeofday () in
  let m = ref IM.empty in
  for i = 0 to 1999 do
    m := IM.add (i * 7919 mod 2003) (Float.of_int i) !m
  done;
  let sum = IM.fold (fun _ v a -> a +. v) !m 0.0 in
  let l = List.sort compare (List.init 2000 (fun i -> i * 7919 mod 2003)) in
  let h = Hashtbl.create 16 in
  for i = 0 to 1199 do
    Hashtbl.replace h (string_of_int i) i
  done;
  ignore (Sys.opaque_identity (sum, l, h));
  Unix.gettimeofday () -. t0

(* One calibration point: the median of five kernel runs. *)
let measure () =
  let a = Array.init 5 (fun _ -> kernel_once ()) in
  Array.sort Float.compare a;
  a.(2)

type t = { mutable points : float list }

let create () = { points = [] }
let point t = t.points <- measure () :: t.points

(* The factor taking raw times of the phase to reference speed; takes a
   point first if the phase has none. *)
let scale t =
  if t.points = [] then point t;
  reference /. Quantile.median (Array.of_list t.points)
