(* Exact reference for the priced-queue workload, computed without the
   simulator.

   The model is an M/M/1/K queue (arrivals at [arrival] while fewer
   than [capacity] jobs wait, services at [service] while any job
   waits) whose cost variable grows at the current queue length.  The
   query E[w ; <> [0, u] served = target] asks for the expected cost
   accumulated until the [target]-th service completes.  Over the
   transient states (q, served < target) that is a first-passage reward
   of a CTMC: a linear solve over the embedded jump chain gives its
   first two moments, and uniformization gives the probability that the
   passage is not complete by the horizon, which bounds the error of
   conditioning on reaching the goal in time. *)

type chain = { arrival : float; service : float; capacity : int; target : int }

let n_states c = (c.capacity + 1) * c.target
let index c ~q ~served = q + ((c.capacity + 1) * served)

(* Outgoing transitions of transient state (q, served): (rate, Some
   successor) or (rate, None) when the move completes the passage. *)
let moves c ~q ~served =
  let arrive =
    if q < c.capacity then [ (c.arrival, Some (index c ~q:(q + 1) ~served)) ]
    else []
  in
  let serve =
    if q > 0 then
      [
        ( c.service,
          if served + 1 = c.target then None
          else Some (index c ~q:(q - 1) ~served:(served + 1)) );
      ]
    else []
  in
  arrive @ serve

let exit_rate c ~q ~served =
  List.fold_left (fun s (r, _) -> s +. r) 0.0 (moves c ~q ~served)

let fold_states c f init =
  let acc = ref init in
  for served = 0 to c.target - 1 do
    for q = 0 to c.capacity do
      acc := f !acc ~q ~served
    done
  done;
  !acc

(* Gaussian elimination with partial pivoting; [a] and [b] are
   consumed. *)
let solve a b =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!piv).(col) then piv := r
    done;
    if a.(!piv).(col) = 0.0 then invalid_arg "Queue_ref.solve: singular system";
    let t = a.(col) in
    a.(col) <- a.(!piv);
    a.(!piv) <- t;
    let t = b.(col) in
    b.(col) <- b.(!piv);
    b.(!piv) <- t;
    for r = col + 1 to n - 1 do
      let f = a.(r).(col) /. a.(col).(col) in
      if f <> 0.0 then begin
        for k = col to n - 1 do
          a.(r).(k) <- a.(r).(k) -. (f *. a.(col).(k))
        done;
        b.(r) <- b.(r) -. (f *. b.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for r = n - 1 downto 0 do
    let s = ref b.(r) in
    for k = r + 1 to n - 1 do
      s := !s -. (a.(r).(k) *. x.(k))
    done;
    x.(r) <- !s /. a.(r).(r)
  done;
  x

type moments = { mean : float; second_moment : float }

(* A sojourn in a state with reward rate r and exit rate L contributes
   X = r·Exp(L): E X = r/L and E X^2 = 2 r^2 / L^2.  With m1, m2 the
   moments of the reward still to come, m1 = E X + P m1 and
   m2 = E X^2 + 2 E X (P m1) + P m2, the sojourn being independent of
   what follows it. *)
let first_passage_reward c =
  if c.capacity < 1 || c.target < 1 || not (c.arrival > 0.0 && c.service > 0.0)
  then invalid_arg "Queue_ref.first_passage_reward: degenerate chain";
  let n = n_states c in
  let system () =
    let a = Array.make_matrix n n 0.0 in
    fold_states c
      (fun () ~q ~served ->
        let i = index c ~q ~served in
        let exit = exit_rate c ~q ~served in
        a.(i).(i) <- 1.0;
        List.iter
          (function
            | r, Some j -> a.(i).(j) <- a.(i).(j) -. (r /. exit) | _, None -> ())
          (moves c ~q ~served))
      ();
    a
  in
  let b1 = Array.make n 0.0 in
  fold_states c
    (fun () ~q ~served ->
      b1.(index c ~q ~served) <- Float.of_int q /. exit_rate c ~q ~served)
    ();
  let m1 = solve (system ()) (Array.copy b1) in
  let b2 = Array.make n 0.0 in
  fold_states c
    (fun () ~q ~served ->
      let i = index c ~q ~served in
      let exit = exit_rate c ~q ~served in
      let ahead =
        List.fold_left
          (fun s -> function r, Some j -> s +. (r /. exit *. m1.(j)) | _, None -> s)
          0.0 (moves c ~q ~served)
      in
      let x = b1.(i) in
      b2.(i) <- (2.0 *. x *. x) +. (2.0 *. x *. ahead))
    ();
  let m2 = solve (system ()) b2 in
  let start = index c ~q:0 ~served:0 in
  { mean = m1.(start); second_moment = m2.(start) }

(* P(passage not complete by [horizon]), by uniformization of the
   transient part of the generator at rate L = max exit rate: the
   Poisson(L·horizon)-weighted sum of the surviving mass after k jumps
   of the uniformized chain.  Weights are computed in log space so long
   horizons do not underflow. *)
let survival c ~horizon =
  let n = n_states c in
  let lam =
    fold_states c (fun m ~q ~served -> Float.max m (exit_rate c ~q ~served)) 0.0
  in
  let lt = lam *. horizon in
  let kmax = Float.to_int (lt +. (12.0 *. Float.sqrt lt)) + 64 in
  let pi = Array.make n 0.0 in
  pi.(index c ~q:0 ~served:0) <- 1.0;
  let total = ref 0.0 and logw = ref (-.lt) in
  for k = 0 to kmax do
    if k > 0 then begin
      logw := !logw +. Float.log lt -. Float.log (Float.of_int k);
      let next = Array.make n 0.0 in
      fold_states c
        (fun () ~q ~served ->
          let i = index c ~q ~served in
          let p = pi.(i) in
          if p <> 0.0 then begin
            let exit = exit_rate c ~q ~served in
            next.(i) <- next.(i) +. (p *. (1.0 -. (exit /. lam)));
            List.iter
              (function
                | r, Some j -> next.(j) <- next.(j) +. (p *. r /. lam)
                | _, None -> ())
              (moves c ~q ~served)
          end)
        ();
      Array.blit next 0 pi 0 n
    end;
    let mass = Array.fold_left ( +. ) 0.0 pi in
    total := !total +. (Float.exp !logw *. mass)
  done;
  Float.min 1.0 !total

(* |E[W | T <= h] - E[W]| <= (sqrt(E[W^2]·p) + p·E[W]) / (1 - p) with
   p = P(T > h), by Cauchy-Schwarz on E[W·1{T > h}]. *)
let truncation_bound c ~horizon =
  let m = first_passage_reward c in
  let p = survival c ~horizon in
  if p >= 1.0 then infinity
  else (Float.sqrt (m.second_moment *. p) +. (p *. m.mean)) /. (1.0 -. p)
