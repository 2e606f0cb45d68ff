type var_kind = Discrete | Clock | Continuous

type var_info = {
  var_name : string;
  kind : var_kind;
  init : Value.t;
  owner : int option;
}

type flow = { target : int; expr : Expr.t }

type reactivation = Restart | Resume

type proc_meta = {
  active_when : Expr.t;
  reactivation : reactivation;
  owned_vars : int list;
}

type t = {
  procs : Automaton.t array;
  meta : proc_meta array;
  vars : var_info array;
  events : string array;
  flows : flow array;
  participants : int list array;
}

exception Invalid_network of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_network s)) fmt

let default_meta =
  { active_when = Expr.true_; reactivation = Resume; owned_vars = [] }

(* Order flows so that every flow only reads variables that are either
   not flow targets or targets of earlier flows (Kahn's algorithm). *)
let topo_sort_flows flows =
  let by_target = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if Hashtbl.mem by_target f.target then
        invalid "variable %d is the target of two data flows" f.target;
      Hashtbl.add by_target f.target f)
    flows;
  let sorted = ref [] in
  let state = Hashtbl.create 16 in
  (* state: `Visiting | `Done *)
  let rec visit target =
    match Hashtbl.find_opt state target with
    | Some `Done -> ()
    | Some `Visiting -> invalid "data flows form a cycle through variable %d" target
    | None -> (
      match Hashtbl.find_opt by_target target with
      | None -> ()
      | Some f ->
        Hashtbl.replace state target `Visiting;
        List.iter visit (Expr.free_vars f.expr);
        Hashtbl.replace state target `Done;
        sorted := f :: !sorted)
  in
  List.iter (fun f -> visit f.target) flows;
  Array.of_list (List.rev !sorted)

let make ~procs ~vars ~events ~flows =
  let n_vars = Array.length vars in
  let check_var ctx v =
    if v < 0 || v >= n_vars then invalid "%s references variable %d out of range" ctx v
  in
  let check_expr ctx e = List.iter (check_var ctx) (Expr.free_vars e) in
  List.iter
    (fun (p, _) ->
      let open Automaton in
      Array.iter (fun l -> check_expr p.proc_name l.invariant) p.locations;
      Array.iter
        (fun tr ->
          (match tr.guard with Guard g -> check_expr p.proc_name g | Rate _ -> ());
          List.iter
            (fun (v, e) ->
              check_var p.proc_name v;
              check_expr p.proc_name e)
            tr.updates;
          match tr.label with
          | Event e ->
            if e < 0 || e >= Array.length events then
              invalid "%s references event %d out of range" p.proc_name e
          | Tau -> ())
        p.transitions)
    procs;
  List.iter
    (fun f ->
      check_var "flow" f.target;
      check_expr "flow" f.expr)
    flows;
  let flows = topo_sort_flows flows in
  let procs_arr = Array.of_list (List.map fst procs) in
  let meta = Array.of_list (List.map snd procs) in
  let participants =
    Array.init (Array.length events) (fun e ->
        Array.to_list procs_arr
        |> List.mapi (fun i p -> (i, p))
        |> List.filter_map (fun (i, p) ->
               if List.mem e p.Automaton.alphabet then Some i else None))
  in
  { procs = procs_arr; meta; vars; events; flows; participants }

let n_procs t = Array.length t.procs
let n_vars t = Array.length t.vars

let find_var t name =
  let rec go i =
    if i >= Array.length t.vars then None
    else if t.vars.(i).var_name = name then Some i
    else go (i + 1)
  in
  go 0

let find_proc t name =
  let rec go i =
    if i >= Array.length t.procs then None
    else if t.procs.(i).Automaton.proc_name = name then Some i
    else go (i + 1)
  in
  go 0

let find_loc t ~proc name = Automaton.find_loc t.procs.(proc) name

let var_name t v = t.vars.(v).var_name
let event_name t e = t.events.(e)
let proc_name t p = t.procs.(p).Automaton.proc_name
let loc_name t ~proc l = t.procs.(proc).Automaton.locations.(l).Automaton.loc_name

let n_events t = Array.length t.events
let event_participants t e = t.participants.(e)

let pp_summary ppf t =
  Fmt.pf ppf "network: %d processes, %d variables, %d events, %d flows"
    (Array.length t.procs) (Array.length t.vars) (Array.length t.events)
    (Array.length t.flows)
