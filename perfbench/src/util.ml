(* Clock, scratch directories and process facts shared by the workloads. *)

let now_ns = Jstar_obs.Monotonic.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
let ms_of_ns ns = float_of_int ns *. 1e-6

(* Time [f ()] in seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec du path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + du (Filename.concat path f))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

(* Scratch space inside the checkout, private to this process. *)
let scratch_dir () =
  let dir =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf "perfbench/_run/%d" (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () -> try rm_rf dir with _ -> ());
  dir

let out_dir () =
  let dir = Filename.concat (Sys.getcwd ()) "perfbench/_out" in
  mkdir_p dir;
  dir

(* VmHWM (peak resident set) of a live process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> scan ()
      in
      scan ())

(* CPU time the host took from this VM's vCPUs so far (the steal column
   of /proc/stat, in USER_HZ ticks of 10 ms), in seconds; 0 where the
   kernel does not report it. *)
let host_steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_string steal /. 100.0
      | _ -> 0.0)

let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match
      Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |]
    with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown")

(* The repo's binaries and benches enlarge the minor heap the same way
   (the OCaml stand-in for the paper's large JVM heap); the batch
   workloads run the system in this process, so they match. *)
let tune_runtime () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }
