(* The shape shared by the batch workloads (pvwatts, closure): the
   system runs in this process, one job = one program run from its
   initial puts to quiescence. *)

(* Run [job] back to back until [seconds] have passed; returns each
   job's wall seconds, oldest first.  [job i] gets the job's index so a
   run can vary what each job does. *)
let loop ~seconds job =
  let deadline = Util.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    if Util.now_ns () >= deadline && i > 0 then List.rev acc
    else
      let (), s = Util.timed (fun () -> job i) in
      go (i + 1) (s :: acc)
  in
  go 0 []

(* One set-up sample: the mean build + freeze time over as many builds
   as fill 2 ms — a single build of the small programs here takes
   microseconds, below what one clock read resolves steadily. *)
let setup_sample build =
  let t0 = Util.now_ns () in
  let rec go n =
    ignore (build ());
    let dt = Util.now_ns () - t0 in
    if dt >= 2_000_000 then float_of_int dt *. 1e-9 /. float_of_int n
    else go (n + 1)
  in
  go 1

(* Every [restart_every]-th job is a restart: a set-up sample, then the
   job on a freshly built program.  Restarts are spread through the
   run, so set-up and recovery see the same load on the box as the
   plain jobs do. *)
let restart_every = 5

(* The untraced measurement:
   - tuples_per_s: [units] per job times jobs, over the jobs' wall time;
   - drain_p50_ms / drain_tail_ms: plain job latency — a job is one run
     of the program to quiescence, the batch form of a drain;
   - recover_s: these jobs keep no durable state, so recovering from a
     crash is rebuilding the program and re-running the job until its
     results are back: the median restart;
   - setup_s: the median set-up sample;
   - peak_rss_mb: this process's VmHWM. *)
let measure r ~seconds ~units ~build ~run =
  let prog = build () in
  let plain = ref [] and restarts = ref [] and setups = ref [] in
  let jobs =
    loop ~seconds (fun i ->
        if i mod restart_every = restart_every - 1 then begin
          setups := setup_sample build :: !setups;
          let (), s = Util.timed (fun () -> run (build ())) in
          restarts := s :: !restarts
        end
        else
          let (), s = Util.timed (fun () -> run prog) in
          plain := (s *. 1e3) :: !plain)
  in
  let n = List.length jobs in
  Report.attempted r n;
  Report.set r "tuples_per_s"
    (float_of_int (units * n) /. List.fold_left ( +. ) 0.0 jobs);
  let a = Stats.sorted !plain in
  Report.set r "drain_p50_ms" (Stats.percentile a 50.0);
  Report.meta r "drain_samples" (Report.int (Array.length a));
  (match Stats.tail_percentile (Array.length a) with
  | Some p ->
      Report.set r "drain_tail_ms" (Stats.percentile a p);
      Report.meta r "drain_tail_percentile" (Report.num p)
  | None -> failwith (Printf.sprintf "only %d jobs: no tail percentile" n));
  Report.meta r "restarts" (Report.int (List.length !restarts));
  Report.set r "recover_s" (Stats.median !restarts);
  Report.set r "setup_s" (Stats.median !setups);
  Report.set r "peak_rss_mb" (Util.peak_rss_mb "self")
