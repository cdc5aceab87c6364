(* perfbench: one run of one workload.

     main.exe --workload serve-stream|pvwatts|closure --seed N
              --seconds S --trace 0|1 [--server PATH]

   Prints a metadata line, then as the last line the result JSON:
   every end-to-end metric with --trace 0, every per-layer metric with
   --trace 1.  perfbench/run.sh builds the repo and calls this. *)

let usage =
  "main.exe --workload serve-stream|pvwatts|closure --seed N --seconds S \
   --trace 0|1 [--server PATH]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and server = ref "_build/default/bin/jstar_serve_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve-stream, pvwatts or closure");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1 = traced run reporting per-layer metrics");
      ("--server", Arg.Set_string server, "the jstar-serve binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let r = Perfbench.Report.create () in
  let traced = !trace = 1 in
  let open Perfbench in
  Report.meta r "workload" (Report.str !workload);
  Report.meta r "seed" (Report.int !seed);
  Report.meta r "seconds" (Report.num !seconds);
  Report.meta r "trace" (Jstar_obs.Json.Bool traced);
  Report.meta r "git_rev" (Report.str (Util.git_rev ()));
  Report.meta r "nproc" (Report.int (Domain.recommended_domain_count ()));
  Report.meta r "ocaml" (Report.str Sys.ocaml_version);
  let run =
    match !workload with
    | "serve-stream" -> Serve_stream.run ~bin:!server
    | "pvwatts" -> Pvwatts.run
    | "closure" -> Closure.run
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let steal0 = Util.host_steal_s () in
  run r ~seed:!seed ~seconds:!seconds ~trace:traced;
  (* time the host took from this VM during the run: large values mark
     runs whose timings measure the neighbours, not the system *)
  Report.meta r "host_steal_s" (Report.num (Util.host_steal_s () -. steal0));
  Report.print r ~trace:traced
