(* closure: transitive closure over seeded layered-cluster graphs (the
   bench/joins.ml shape) under [Config.parallel ~threads:2] — batch
   firing, put batching, the advisor and the always-on profiler.

   Why: read/join-heavy where pvwatts is put/dedup-heavy — index
   probes, wide classes (every Path tuple shares one timestamp, so each
   BFS wave is one class) and insert_batch dedup, since the cluster
   fan-in makes most derived puts duplicates.  The only workload that
   exercises the scheduler and prices the profiler.

   The traced run rotates three kinds of job: plain, traced, and plain
   with the profiler off, for trace.overhead and obs.profiler_cost. *)

open Jstar_core
module Tracer = Jstar_obs.Tracer

let why =
  "join-heavy transitive closure at 2 threads: index probes, wide classes, \
   batch dedup, the scheduler and the always-on profiler"

let threads = 2
let clusters = 1
let layers = 4
let width = 32

(* bench/joins.ml's store choice: hash indexes on the join prefixes. *)
let config =
  {
    (Config.parallel ~threads ()) with
    Config.stores = [ ("Edge", Store.Hash_index 1); ("Path", Store.Hash_index 2) ];
  }

let build edges () =
  let p = Program.create () in
  let edge =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  let path =
    Program.table p "Path"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Path" ]
      ()
  in
  Program.order p [ "Edge"; "Path" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "step" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| Value.Int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  let init =
    Array.to_list edges
    |> List.map (fun (a, b) -> Tuple.make edge [| Value.Int a; Value.Int b |])
  in
  (Program.freeze p, path, init)

let expected = Gen.closure_size ~clusters ~layers ~width

(* One job; its Path count must be the analytic closure size. *)
let job r (frozen, path, init) cfg () =
  let res, gamma = Engine.run_with_gamma ~init frozen cfg in
  Report.check r "Path count equals the closure size"
    ((gamma path).Store.size () = expected);
  res

(* Digests at 2 threads equal a 1-thread run of the same config. *)
let check_digests r prog =
  let digest threads =
    (job r prog { config with Config.threads; digest = true } ()).Engine.digest
  in
  let two = digest threads and one = digest 1 in
  Report.check r "2-thread digests equal the 1-thread run"
    (two <> None && two = one)

let run r ~seed ~seconds ~trace =
  Util.tune_runtime ();
  let edges = Gen.layered_graph ~seed ~clusters ~layers ~width in
  Report.meta r "why" (Report.str why);
  Report.meta r "threads" (Report.int threads);
  Report.meta r "clusters" (Report.int clusters);
  Report.meta r "layers" (Report.int layers);
  Report.meta r "width" (Report.int width);
  Report.meta r "edges" (Report.int (Array.length edges));
  Report.meta r "paths" (Report.int expected);
  let prog = build edges () in
  if not trace then begin
    Batch.measure r ~seconds ~units:expected ~build:(build edges)
      ~run:(fun prog -> ignore (job r prog config ()));
    check_digests r prog
  end
  else begin
    let tr = Spans.create ~traced:true in
    let k_root = Tracer.register_kind tr "bench.closure" in
    let k_run = Tracer.register_kind tr "core.run" in
    let no_profile = { config with Config.profile = false } in
    let plain = ref [] and traced = ref [] and unprofiled = ref [] in
    let stats = Engine_stats.create () in
    let _ =
      Batch.loop ~seconds (fun i ->
          match i mod 3 with
          | 0 ->
              let res, s = Util.timed (job r prog config) in
              Engine_stats.add stats ~wall:s res;
              Engine_stats.job stats;
              plain := s :: !plain
          | 1 ->
              let (_ : Engine.result), s =
                Util.timed (fun () ->
                    Tracer.span tr k_root (fun () ->
                        Tracer.span tr k_run (job r prog config)))
              in
              traced := s :: !traced
          | _ ->
              let (_ : Engine.result), s = Util.timed (job r prog no_profile) in
              unprofiled := s :: !unprofiled)
    in
    Report.attempted r
      (List.length !plain + List.length !traced + List.length !unprofiled);
    Engine_stats.set r stats;
    Engine_stats.set_sched r stats ~threads;
    Report.set r "obs.profiler_cost"
      ((Stats.median !plain /. Stats.median !unprofiled) -. 1.0);
    Report.set r "trace.overhead" (Stats.median !plain /. Stats.median !traced);
    check_digests r prog;
    Spans.finish r tr ~workload:"closure"
  end
