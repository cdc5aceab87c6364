(* pvwatts: the paper's Fig 4 program in its §6.2 configuration
   ([Pvwatts.config]: -noDelta PvWatts, month-array store) at 2 threads
   over seeded in-memory CSV bytes.

   2 threads, not 1: on a 2-core box a one-thread job runs at the speed
   of whichever core the scheduler keeps it on, and a host that loads
   one core harder than the other moves its median from run to run.
   Over 10 seeds on a shared 2-vCPU VM the median job time spread
   (IQR / median) 0.25-0.44 at 1 thread and 0.06-0.12 at 2 threads.

   Why: the paper's headline case study.  Its work is CSV parsing,
   Gamma inserts and SumMonth Delta dedup; nothing in serve or
   persist.

   The traced run repeats a plain job, a traced job and a
   decomposition: the §6.3 phases on the same bytes (parse, tuple
   creation, Gamma insert, Delta insert, reduce) and the hand-coded
   baseline, each under its own span. *)

open Jstar_core
module Pv = Jstar_apps.Pvwatts
module Tracer = Jstar_obs.Tracer

let why =
  "the paper's Fig 4 case study at its 6.2 configuration: CSV parse, Gamma \
   insert and SumMonth Delta dedup, with no serving or persistence"

let installations = 4
let chunks = 8
let threads = 2
let config = Pv.config ~threads ()

let build data () =
  let app = Pv.make ~data ~chunks () in
  (app, Program.freeze app.Pv.program)

(* The monthly lines must print each exact mean to its two decimals.
   Compared numerically: the engine's Statistics reducer folds floats
   in store order, so a mean sitting exactly on a rounding tie may
   print either neighbour. *)
let check_lines r ~what lines means =
  let parsed =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "%d/%d: %f" (fun y m v -> (y, m, v)))
      lines
    |> List.sort compare
  in
  let ok =
    List.length lines = 12
    && List.length parsed = 12
    && List.for_all2
         (fun (y, m, v) (m', mean) ->
           y = Jstar_csv.Pvwatts_data.year && m = m'
           && Float.abs (v -. mean) <= 0.005 +. 1e-9)
         parsed means
  in
  Report.check r (what ^ " monthly means equal the reference") ok

let job r app frozen means () =
  let res = Engine.run ~init:app.Pv.init frozen config in
  check_lines r ~what:"pvwatts" res.Engine.outputs means;
  res

(* The §6.3 decomposition of one job on the same bytes, each phase on
   fresh structures, summed over the run's decompositions. *)
type phases = {
  mutable parse : float;
  mutable store_insert : float;
  mutable delta_insert : float;
  mutable reduce : float;
  mutable baseline : float;
  mutable iters : int;
}

let decompose r ~tr ~kinds:(k_parse, k_make, k_store, k_delta, k_reduce, k_base)
    ph app frozen data records means =
  let fields = Array.make 6 0 in
  let sum = ref 0 in
  let (), parse =
    Util.timed (fun () ->
        Tracer.span tr k_parse (fun () ->
            Jstar_csv.Parse.iter_records data 0 (Bytes.length data) (fun s e ->
                ignore (Jstar_csv.Parse.int_fields_into data s e fields);
                sum := !sum + fields.(5))))
  in
  Report.check r "csv parse sums every power"
    (!sum = Array.fold_left (fun acc x -> acc + x.Gen.power) 0 records);
  let order = Program.order_rel app.Pv.program in
  let year = Value.Int Jstar_csv.Pvwatts_data.year in
  let pv, sums, stamps =
    Tracer.span tr k_make (fun () ->
        let pv =
          Array.map
            (fun x ->
              Tuple.make app.Pv.pv_table
                Value.
                  [|
                    year; Int x.Gen.month; Int x.Gen.day; Int x.Gen.hour;
                    Int x.Gen.site; Int x.Gen.power;
                  |])
            records
        in
        let sums =
          Array.map
            (fun x -> Tuple.make app.Pv.sum_table [| year; Value.Int x.Gen.month |])
            records
        in
        (pv, sums, Array.map (Timestamp.of_tuple order) sums))
  in
  let store = Pv.month_array_store app.Pv.pv_table in
  let (), store_insert =
    Util.timed (fun () ->
        Tracer.span tr k_store (fun () ->
            Array.iter (fun t -> ignore (store.Store.insert t)) pv))
  in
  let delta =
    Delta.create ~mode:(Config.effective_mode config) ~nlits:frozen.Program.nlits ()
  in
  let (), delta_insert =
    Util.timed (fun () ->
        Tracer.span tr k_delta (fun () ->
            Array.iteri (fun i t -> ignore (Delta.insert delta t stamps.(i))) sums))
  in
  Report.check r "SumMonth Delta keeps one tuple per month" (Delta.size delta = 12);
  let lines, reduce =
    Util.timed (fun () ->
        Tracer.span tr k_reduce (fun () ->
            List.init 12 (fun i ->
                let month = i + 1 in
                let stats = ref Reducer.Statistics.empty in
                store.Store.iter_prefix [| year; Value.Int month |] (fun t ->
                    stats :=
                      Reducer.Statistics.add !stats
                        (float_of_int (Tuple.int t "power")));
                Pv.format_mean Jstar_csv.Pvwatts_data.year month
                  (Reducer.Statistics.mean !stats))))
  in
  check_lines r ~what:"decomposed reduce" lines means;
  let lines, baseline =
    Util.timed (fun () -> Tracer.span tr k_base (fun () -> Pv.baseline data))
  in
  check_lines r ~what:"hand-coded baseline" lines means;
  ph.parse <- ph.parse +. parse;
  ph.store_insert <- ph.store_insert +. store_insert;
  ph.delta_insert <- ph.delta_insert +. delta_insert;
  ph.reduce <- ph.reduce +. reduce;
  ph.baseline <- ph.baseline +. baseline

let run r ~seed ~seconds ~trace =
  Util.tune_runtime ();
  let records = Gen.pvwatts_records ~seed ~installations in
  let data = Gen.csv_bytes records in
  let means = Gen.monthly_means records in
  let n = Array.length records in
  Report.meta r "why" (Report.str why);
  Report.meta r "installations" (Report.int installations);
  Report.meta r "records" (Report.int n);
  Report.meta r "csv_bytes" (Report.int (Bytes.length data));
  Report.meta r "chunks" (Report.int chunks);
  Report.meta r "engine_threads" (Report.int threads);
  if not trace then
    Batch.measure r ~seconds ~units:n ~build:(build data)
      ~run:(fun (app, frozen) -> ignore (job r app frozen means ()))
  else begin
    let app, frozen = build data () in
    let tr = Spans.create ~traced:true in
    let k name = Tracer.register_kind tr name in
    let k_root = k "bench.pvwatts" and k_run = k "core.run" in
    let kinds =
      (k "csv.parse", k "core.tuple_make", k "core.store_insert",
       k "core.delta_insert", k "core.reduce", k "ref.baseline")
    in
    let ph =
      {
        parse = 0.0; store_insert = 0.0; delta_insert = 0.0; reduce = 0.0;
        baseline = 0.0; iters = 0;
      }
    in
    let plain = ref [] and traced = ref [] and stats = Engine_stats.create () in
    (* plain job, traced job and decomposition in the order P T D T P D:
       each kind of job follows each other step once per period, so the
       garbage a decomposition leaves lands on both kinds alike *)
    let _ =
      Batch.loop ~seconds (fun i ->
          match i mod 6 with
          | 0 | 4 ->
              let (_ : Engine.result), s = Util.timed (job r app frozen means) in
              plain := s :: !plain
          | 1 | 3 ->
              let res, s =
                Util.timed (fun () ->
                    Tracer.span tr k_root (fun () ->
                        Tracer.span tr k_run (job r app frozen means)))
              in
              Engine_stats.add stats ~wall:s res;
              Engine_stats.job stats;
              traced := s :: !traced
          | _ ->
              ph.iters <- ph.iters + 1;
              Tracer.span tr k_root (fun () ->
                  decompose r ~tr ~kinds ph app frozen data records means))
    in
    Report.attempted r (List.length !plain + List.length !traced + ph.iters);
    let iters = float_of_int (max 1 ph.iters) in
    let per_record x = x *. 1e9 /. (iters *. float_of_int n) in
    Report.set r "csv.parse_ns_per_record" (per_record ph.parse);
    Report.set r "core.store_insert_ns" (per_record ph.store_insert);
    Report.set r "core.delta_insert_ns" (per_record ph.delta_insert);
    Report.set r "core.reduce_s" (ph.reduce /. iters);
    (* against the mean traced job on the same bytes *)
    let job_s = Stats.mean !traced in
    Report.set r "core.delta_share" (ph.delta_insert /. iters /. job_s);
    Report.set r "ref.handcoded_ratio" (job_s /. (ph.baseline /. iters));
    Report.set r "trace.overhead" (Stats.median !plain /. Stats.median !traced);
    Engine_stats.set r stats;
    Engine_stats.set_sched r stats ~threads;
    Spans.finish r tr ~workload:"pvwatts"
  end
