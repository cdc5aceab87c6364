(* engine.* and sched.* per-layer metrics from the public
   [Engine.result] of the runs a workload made: phase seconds, steps and
   Delta counters from the result, scheduler counters from its metrics
   registry.  Folded as each result arrives (a result's registry keeps
   its run's database reachable), then reported as per-job means. *)

open Jstar_core

type t = {
  mutable extract : float;
  mutable gamma : float;
  mutable rules : float;
  mutable steps : int;
  mutable inserted : int;
  mutable deduped : int;
  mutable tasks : float;
  mutable steals : float;
  mutable parks : float;
  mutable idle : float;
  mutable wall : float;
  mutable jobs : int;
}

let create () =
  {
    extract = 0.0; gamma = 0.0; rules = 0.0; steps = 0; inserted = 0;
    deduped = 0; tasks = 0.0; steals = 0.0; parks = 0.0; idle = 0.0;
    wall = 0.0; jobs = 0;
  }

(* [wall] is the job's wall time, for the scheduler's busy share. *)
let add a ?(wall = 0.0) (x : Engine.result) =
  let read name =
    Option.value ~default:0.0 (Jstar_obs.Metrics.read x.Engine.metrics name)
  in
  a.extract <- a.extract +. x.Engine.phases.Engine.t_extract;
  a.gamma <- a.gamma +. x.Engine.phases.Engine.t_gamma;
  a.rules <- a.rules +. x.Engine.phases.Engine.t_rules;
  a.steps <- a.steps + x.Engine.steps;
  a.inserted <- a.inserted + x.Engine.delta_inserted;
  a.deduped <- a.deduped + x.Engine.delta_deduped;
  a.tasks <- a.tasks +. read "sched.tasks";
  a.steals <- a.steals +. read "sched.steals";
  a.parks <- a.parks +. read "sched.parks";
  a.idle <- a.idle +. read "sched.idle_s";
  a.wall <- a.wall +. wall

let job a = a.jobs <- a.jobs + 1

let set r a =
  let jobs = float_of_int (max 1 a.jobs) in
  let per x = x /. jobs in
  Report.set r "engine.extract_s" (per a.extract);
  Report.set r "engine.gamma_s" (per a.gamma);
  Report.set r "engine.rules_s" (per a.rules);
  Report.set r "engine.steps" (per (float_of_int a.steps));
  Report.set r "engine.delta_inserted" (per (float_of_int a.inserted));
  Report.set r "engine.delta_deduped" (per (float_of_int a.deduped));
  let puts = a.inserted + a.deduped in
  if puts > 0 then
    Report.set r "engine.dedup_ratio"
      (float_of_int a.deduped /. float_of_int puts)

let set_sched r a ~threads =
  let jobs = float_of_int (max 1 a.jobs) in
  Report.set r "sched.tasks" (a.tasks /. jobs);
  Report.set r "sched.steals" (a.steals /. jobs);
  Report.set r "sched.parks" (a.parks /. jobs);
  Report.set r "sched.idle_s" (a.idle /. jobs);
  Report.set r "sched.busy_share"
    (1.0 -. (a.idle /. (float_of_int threads *. a.wall)))
