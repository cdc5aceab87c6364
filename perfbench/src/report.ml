(* One run's result: the metric values, the operation counts behind
   [failed_ratio], and the metadata stamped next to them.  The metric
   catalogue here is the one BENCHMARK.json declares. *)

let end_to_end =
  [
    ("tuples_per_s", "1/s");
    ("drain_p50_ms", "ms");
    ("drain_tail_ms", "ms");
    ("recover_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric is printed on every workload; a layer the
   workload does not exercise reads 0. *)
let per_layer =
  [
    ("serve.feed_p50_ms", "ms");
    ("serve.feed_p99_ms", "ms");
    ("serve.flow_pauses", "count");
    ("serve.transport_share", "ratio");
    ("protocol.encode_ns_per_tuple", "ns");
    ("protocol.decode_ns_per_tuple", "ns");
    ("protocol.bytes_per_tuple", "B");
    ("persist.tuples_per_s", "1/s");
    ("persist.feed_us_per_tuple", "us");
    ("persist.drain_ms", "ms");
    ("persist.checkpoint_ms", "ms");
    ("persist.checkpoints", "count");
    ("persist.checkpoint_share", "ratio");
    ("persist.replayed_records", "count");
    ("wal.fsyncs", "count");
    ("wal.coalesced_syncs", "count");
    ("wal.bytes_per_tuple", "B");
    ("snapshot.bytes", "B");
    ("engine.alone_tuples_per_s", "1/s");
    ("engine.extract_s", "s");
    ("engine.gamma_s", "s");
    ("engine.rules_s", "s");
    ("engine.steps", "count");
    ("engine.delta_inserted", "count");
    ("engine.delta_deduped", "count");
    ("engine.dedup_ratio", "ratio");
    ("csv.parse_ns_per_record", "ns");
    ("core.store_insert_ns", "ns");
    ("core.delta_insert_ns", "ns");
    ("core.reduce_s", "s");
    ("core.delta_share", "ratio");
    ("ref.handcoded_ratio", "ratio");
    ("sched.tasks", "count");
    ("sched.steals", "count");
    ("sched.parks", "count");
    ("sched.idle_s", "s");
    ("sched.busy_share", "ratio");
    ("obs.profiler_cost", "ratio");
    ("trace.unattributed_share", "ratio");
    ("trace.overhead", "ratio");
    ("trace.serve_share", "ratio");
    ("trace.protocol_share", "ratio");
    ("trace.persist_share", "ratio");
    ("trace.core_share", "ratio");
    ("trace.csv_share", "ratio");
    ("trace.ref_share", "ratio");
  ]

type t = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable meta : (string * Jstar_obs.Json.t) list;
}

let create () =
  { values = Hashtbl.create 64; attempted = 0; failed = 0; meta = [] }

let set r name v = Hashtbl.replace r.values name v

let attempted r n = r.attempted <- r.attempted + n

let failure r msg =
  r.failed <- r.failed + 1;
  Printf.eprintf "perfbench: FAILED: %s\n%!" msg

(* An output check is one attempted operation; a failed check is a
   failed operation. *)
let check r what ok =
  attempted r 1;
  if not ok then failure r what

let meta r key v = r.meta <- r.meta @ [ (key, v) ]
let str s = Jstar_obs.Json.Str s
let num f = Jstar_obs.Json.Num f
let int i = Jstar_obs.Json.Num (float_of_int i)

(* The result line: every metric of the run's kind, in catalogue order,
   each value with all its digits. *)
let result_line r ~trace =
  let catalogue = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    let v =
      match Hashtbl.find_opt r.values name with
      | Some v -> v
      | None when trace -> 0.0
      | None -> failwith ("end-to-end metric not measured: " ^ name)
    in
    if not (Float.is_finite v) then
      failwith (Printf.sprintf "metric %s is not finite" name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) (max 1 r.attempted) r.failed
    (String.concat ", " (List.map metric catalogue))

let print r ~trace =
  let failed_ratio =
    float_of_int r.failed /. float_of_int (max 1 r.attempted)
  in
  let meta = r.meta @ [ ("failed_ratio", num failed_ratio) ] in
  let open Jstar_obs.Json in
  print_endline (to_string (Obj [ ("meta", Obj meta) ]));
  print_endline (result_line r ~trace)
