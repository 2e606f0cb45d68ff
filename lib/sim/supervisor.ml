module Generator = Slimsim_stats.Generator

type checkpoint_cfg = { file : string; every : int }

type t = {
  on_divergence : [ `Abort | `Unsat | `Drop ];
  checkpoint : checkpoint_cfg option;
  resume : bool;
  max_restarts : int;
  restart_backoff : float;
  stop : bool Atomic.t;
  chaos : (worker:int -> path:int -> unit) option;
  metrics_file : string option;
  max_buffer : int;
  drop_stall_limit : int;
}

let create ?(on_divergence = `Abort) ?checkpoint ?(resume = false)
    ?(max_restarts = 3) ?(restart_backoff = 0.05) ?stop ?chaos ?metrics_file
    ?(max_buffer = 256) ?(drop_stall_limit = 10_000) () =
  if max_restarts < 0 then invalid_arg "Supervisor.create: max_restarts";
  if restart_backoff < 0.0 then invalid_arg "Supervisor.create: restart_backoff";
  if max_buffer <= 0 then invalid_arg "Supervisor.create: max_buffer";
  if drop_stall_limit <= 0 then invalid_arg "Supervisor.create: drop_stall_limit";
  (match checkpoint with
  | Some { every; _ } when every <= 0 ->
    invalid_arg "Supervisor.create: checkpoint interval must be positive"
  | _ -> ());
  {
    on_divergence;
    checkpoint;
    resume;
    max_restarts;
    restart_backoff;
    stop = (match stop with Some s -> s | None -> Atomic.make false);
    chaos;
    metrics_file;
    max_buffer;
    drop_stall_limit;
  }

let default () = create ()

let request_stop t = Atomic.set t.stop true
let stop_requested t = Atomic.get t.stop

(* Exponential backoff capped at one second: enough to ride out a
   transient resource squeeze without stalling the campaign. *)
let backoff_delay t ~attempt =
  Float.min 1.0 (t.restart_backoff *. (2.0 ** float_of_int attempt))

let install_signal_handlers t =
  let handle _ = Atomic.set t.stop true in
  let set s = try Sys.set_signal s (Sys.Signal_handle handle) with _ -> () in
  set Sys.sigint;
  set Sys.sigterm

let divergence_policy_to_string = function
  | `Abort -> "abort"
  | `Unsat -> "unsat"
  | `Drop -> "drop"

let divergence_policy_of_string = function
  | "abort" -> Ok `Abort
  | "unsat" -> Ok `Unsat
  | "drop" -> Ok `Drop
  | s -> Error (Printf.sprintf "unknown divergence policy %S" s)

module Checkpoint = struct
  (* A cost campaign's accumulator: the Welford state of the sat-path
     costs, the observed range, and the 64 log2 histogram buckets
     ([Slimsim_obs.Metrics.bucket_of] convention) that back the quantile
     table — enough to resume bit-identically without storing raw
     samples. *)
  type cost_state = {
    c_query : string;  (* canonical query; a resume must match it *)
    c_count : int;  (* sat paths folded into the accumulator *)
    c_mean : float;
    c_m2 : float;
    c_min : float;
    c_max : float;
    c_buckets : int array;
  }

  type state = {
    seed : int64;
    kind : Generator.kind;
    delta : float;
    eps : float;
    next_path : int;
    trials : int;
    successes : int;
    deadlocks : int;
    violated : int;
    errors : int;
    diverged : int;
    dropped : int;
    leases : (int * int * int) list;
    cost : cost_state option;
        (* trailing optional block: absent for classic campaigns, so
           files they write stay byte-identical to earlier builds *)
  }

  let magic = "slimsim-checkpoint"
  let format_version = 2

  (* Atomicity: write the whole state to [file ^ ".tmp"], then rename.
     rename(2) is atomic within a filesystem, so a reader (including a
     later [--resume]) only ever sees either the previous complete
     checkpoint or the new one — never a torn write, even if the process
     is killed mid-save. *)
  let save ~file st =
    let tmp = file ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc "%s %d\n" magic format_version;
        Printf.fprintf oc "seed %Ld\n" st.seed;
        Printf.fprintf oc "generator %s\n" (Generator.kind_to_string st.kind);
        (* %h hex floats round-trip exactly, so the resumed campaign
           plans with bit-identical delta/eps. *)
        Printf.fprintf oc "delta %h\n" st.delta;
        Printf.fprintf oc "eps %h\n" st.eps;
        Printf.fprintf oc "next-path %d\n" st.next_path;
        Printf.fprintf oc "estimator %d %d\n" st.trials st.successes;
        Printf.fprintf oc "tallies %d %d %d %d %d\n" st.deadlocks st.violated
          st.errors st.diverged st.dropped;
        Printf.fprintf oc "leases %d\n" (List.length st.leases);
        List.iter
          (fun (id, lo, hi) -> Printf.fprintf oc "lease %d %d %d\n" id lo hi)
          st.leases;
        match st.cost with
        | None -> ()
        | Some c ->
          Printf.fprintf oc "cost %d %h %h %h %h\n" c.c_count c.c_mean c.c_m2
            c.c_min c.c_max;
          Printf.fprintf oc "cost-query %s\n" c.c_query;
          Printf.fprintf oc "cost-buckets";
          Array.iter (fun n -> Printf.fprintf oc " %d" n) c.c_buckets;
          Printf.fprintf oc "\n");
    Unix.rename tmp file

  (* The header is "<magic-word> <version>".  The magic word and the
     version are checked separately so a stale (or future) checkpoint is
     rejected with a version message, not a generic decode failure. *)
  let parse_header l =
    match String.index_opt l ' ' with
    | None -> Error "unrecognized checkpoint header"
    | Some i ->
      let word = String.sub l 0 i in
      let rest = String.sub l (i + 1) (String.length l - i - 1) in
      if word <> magic then Error "unrecognized checkpoint header"
      else (
        match int_of_string_opt (String.trim rest) with
        | None -> Error "unrecognized checkpoint header"
        | Some v when v <> format_version ->
          Error
            (Printf.sprintf
               "unsupported checkpoint format version %d (this build reads \
                and writes version %d); delete the file or re-run without \
                --resume to start fresh"
               v format_version)
        | Some _ -> Ok ())

  let load ~file =
    try
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let line () = String.trim (input_line ic) in
          match parse_header (line ()) with
          | Error e -> Error e
          | Ok () -> begin
            let seed = Scanf.sscanf (line ()) "seed %Ld" Fun.id in
            let kind_s = Scanf.sscanf (line ()) "generator %s" Fun.id in
            match Generator.kind_of_string kind_s with
            | Error e -> Error e
            | Ok kind ->
              let float_field name l =
                Scanf.sscanf l "%s %s" (fun k v ->
                    if k <> name then failwith ("expected field " ^ name)
                    else
                      match float_of_string_opt v with
                      | Some f -> f
                      | None -> failwith ("malformed float in field " ^ name))
              in
              let delta = float_field "delta" (line ()) in
              let eps = float_field "eps" (line ()) in
              let next_path = Scanf.sscanf (line ()) "next-path %d" Fun.id in
              let trials, successes =
                Scanf.sscanf (line ()) "estimator %d %d" (fun a b -> (a, b))
              in
              let deadlocks, violated, errors, diverged, dropped =
                Scanf.sscanf (line ()) "tallies %d %d %d %d %d"
                  (fun a b c d e -> (a, b, c, d, e))
              in
              let n_leases = Scanf.sscanf (line ()) "leases %d" Fun.id in
              if n_leases < 0 then failwith "negative lease count"
              else begin
                let leases =
                  List.init n_leases (fun _ ->
                      Scanf.sscanf (line ()) "lease %d %d %d" (fun a b c ->
                          (a, b, c)))
                in
                (* The cost block is optional and trailing: EOF here is
                   a classic checkpoint, not a truncated one. *)
                let cost =
                  match (try Some (line ()) with End_of_file -> None) with
                  | None -> None
                  | Some l when String.length l > 5 && String.sub l 0 5 = "cost " ->
                    let c_count, c_mean, c_m2, c_min, c_max =
                      Scanf.sscanf l "cost %d %h %h %h %h" (fun a b c d e ->
                          (a, b, c, d, e))
                    in
                    let qline = line () in
                    let qprefix = "cost-query " in
                    if
                      String.length qline <= String.length qprefix
                      || String.sub qline 0 (String.length qprefix) <> qprefix
                    then failwith "expected a cost-query line";
                    let c_query =
                      String.sub qline (String.length qprefix)
                        (String.length qline - String.length qprefix)
                    in
                    let bline = line () in
                    let bprefix = "cost-buckets" in
                    if
                      String.length bline < String.length bprefix
                      || String.sub bline 0 (String.length bprefix) <> bprefix
                    then failwith "expected a cost-buckets line";
                    let c_buckets =
                      String.sub bline (String.length bprefix)
                        (String.length bline - String.length bprefix)
                      |> String.split_on_char ' '
                      |> List.filter (fun s -> s <> "")
                      |> List.map (fun s ->
                             match int_of_string_opt s with
                             | Some n -> n
                             | None -> failwith "malformed cost bucket count")
                      |> Array.of_list
                    in
                    Some { c_query; c_count; c_mean; c_m2; c_min; c_max; c_buckets }
                  | Some _ -> failwith "unrecognized trailing checkpoint block"
                in
                let cost_consistent =
                  match cost with
                  | None -> true
                  | Some c ->
                    c.c_count >= 0
                    && Float.is_finite c.c_m2 && c.c_m2 >= 0.0
                    && (c.c_count = 0
                       || Float.is_finite c.c_mean
                          && Float.is_finite c.c_min
                          && Float.is_finite c.c_max
                          && c.c_min <= c.c_max)
                    && Array.length c.c_buckets = 64
                    && Array.for_all (fun n -> n >= 0) c.c_buckets
                    && Array.fold_left ( + ) 0 c.c_buckets = c.c_count
                in
                if
                  trials < 0 || successes < 0 || successes > trials
                  || next_path < 0 || deadlocks < 0 || violated < 0
                  || errors < 0 || diverged < 0 || dropped < 0
                  || List.exists (fun (_, lo, hi) -> lo < 0 || hi < lo) leases
                  || not cost_consistent
                then Error "inconsistent checkpoint counters"
                else
                  Ok
                    {
                      seed;
                      kind;
                      delta;
                      eps;
                      next_path;
                      trials;
                      successes;
                      deadlocks;
                      violated;
                      errors;
                      diverged;
                      dropped;
                      leases;
                      cost;
                    }
              end
          end)
    with
    | Sys_error msg -> Error msg
    | End_of_file -> Error (file ^ ": truncated checkpoint")
    | Scanf.Scan_failure msg | Failure msg ->
      Error (file ^ ": malformed checkpoint: " ^ msg)
end
