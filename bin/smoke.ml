(* Scratch end-to-end exercise of the pipeline; superseded by the test
   suite but kept as a fast sanity binary. *)

module Loader = Slimsim_slim.Loader
module Network = Slimsim_sta.Network
module Campaign = Slimsim_sim.Campaign
module Generator = Slimsim_stats.Generator
module Strategy = Slimsim_sim.Strategy
module Path = Slimsim_sim.Path
module Rng = Slimsim_stats.Rng

(* The paper's Chernoff–Hoeffding generator. *)
let chernoff ~delta ~eps = Generator.create Generator.Chernoff ~delta ~eps

let () =
  (* 1. nominal GPS *)
  (match Loader.load_string Slimsim_models.Gps.nominal_only with
  | Error e -> failwith ("nominal load failed: " ^ e)
  | Ok { network; _ } ->
    Fmt.pr "nominal: %a@." Network.pp_summary network;
    let goal =
      match Loader.parse_goal network Slimsim_models.Gps.goal_acquired with
      | Ok g -> g
      | Error e -> failwith e
    in
    List.iter
      (fun strat ->
        let cfg = Path.default_config ~horizon:200.0 in
        let rng = Rng.for_path ~seed:42L ~path:0 in
        let v, _ = Path.generate network cfg strat rng ~goal in
        Fmt.pr "  %-12s -> %s@."
          (Strategy.to_string strat)
          (match v with
          | Ok v -> Path.verdict_to_string v
          | Error e -> Path.error_to_string e))
      Strategy.all_automated);
  (* 2. full GPS with faults, supervisor and injection *)
  match Loader.load_string Slimsim_models.Gps.source with
  | Error e -> failwith ("full load failed: " ^ e)
  | Ok { network; _ } ->
    Fmt.pr "full: %a@." Network.pp_summary network;
    let goal =
      match Loader.parse_goal network Slimsim_models.Gps.goal_no_fix with
      | Ok g -> g
      | Error e -> failwith e
    in
    List.iter
      (fun strat ->
        match
          Campaign.run network ~goal ~horizon:300.0 ~strategy:strat
            ~generator:(chernoff ~delta:0.05 ~eps:0.05) ()
        with
        | Ok r -> Fmt.pr "  %-12s %a@." (Strategy.to_string strat) Campaign.pp_result r
        | Error e ->
          Fmt.pr "  %-12s ERROR %s@." (Strategy.to_string strat)
            (Path.error_to_string e))
      Strategy.all_automated

(* 3. sensor-filter: CTMC pipeline vs simulator vs closed form *)
module Analysis = Slimsim_ctmc.Analysis
module Sf = Slimsim_models.Sensor_filter

let () =
  let n = 2 in
  let horizon = 1800.0 in
  match Loader.load_string (Sf.source ~n) with
  | Error e -> failwith ("sensor-filter load failed: " ^ e)
  | Ok { network; _ } ->
    Fmt.pr "sensor-filter n=%d: %a@." n Network.pp_summary network;
    let goal =
      match Loader.parse_goal network (Sf.goal_all_failed ~n) with
      | Ok g -> g
      | Error e -> failwith e
    in
    Fmt.pr "  closed form: %.6f@." (Sf.closed_form ~n ~horizon);
    (match Analysis.check network ~goal ~horizon with
    | Ok r -> Fmt.pr "  ctmc:        %a@." Analysis.pp_report r
    | Error e -> Fmt.pr "  ctmc ERROR: %s@." e);
    (match
       Campaign.run network ~goal ~horizon ~strategy:Strategy.Asap
         ~generator:(chernoff ~delta:0.05 ~eps:0.01) ()
     with
    | Ok r -> Fmt.pr "  sim(asap):   %a@." Campaign.pp_result r
    | Error e -> Fmt.pr "  sim ERROR: %s@." (Path.error_to_string e))

(* 4. launcher, both variants, quick run *)
module Launcher = Slimsim_models.Launcher

let () =
  List.iter
    (fun (label, variant) ->
      match Loader.load_string (Launcher.source ~variant) with
      | Error e -> failwith ("launcher load failed: " ^ e)
      | Ok { network; _ } ->
        Fmt.pr "launcher (%s): %a@." label Network.pp_summary network;
        let goal =
          match Loader.parse_goal network Launcher.goal_failure with
          | Ok g -> g
          | Error e -> failwith e
        in
        List.iter
          (fun strat ->
            match
              Campaign.run network ~goal ~horizon:60.0 ~strategy:strat
                ~generator:(chernoff ~delta:0.1 ~eps:0.1) ()
            with
            | Ok r ->
              Fmt.pr "  %-12s %a@." (Strategy.to_string strat) Campaign.pp_result r
            | Error e ->
              Fmt.pr "  %-12s ERROR %s@." (Strategy.to_string strat)
                (Path.error_to_string e))
          Strategy.all_automated)
    [ ("permanent", `Permanent); ("recoverable", `Recoverable) ]
