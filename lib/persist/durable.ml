(* Durable sessions: WAL + snapshots around an engine session.

   Ordering invariants:
   - a feed batch reaches the log before its tuples enter Delta;
   - every drain appends a watermark carrying the session's scalar
     state and digests, and commits the log (fsync per policy);
   - a checkpoint writes the complete next generation (snapshot + fresh
     log), fsyncs it, and only then flips CURRENT — so every possible
     crash point leaves one fully-valid generation on disk.

   Recovery trusts nothing it can avoid trusting: the manifest is
   CRC-checked, the rebuilt database must reproduce the manifest's
   fingerprint, and every replayed drain must reproduce its watermark's
   class-sequence and output-stream digests. *)

open Jstar_core

exception Recovery_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Recovery_error s)) fmt

type t = {
  dir : string;
  session : Engine.session;
  tables : Schema.t array;
  schema_hash : int;
  policy : Wal.fsync_policy;
  checkpoint_every : int;  (* drains between automatic checkpoints; 0 = off *)
  out_digest : Fingerprint.t;  (* running output-stream digest *)
  fork_base : int option;
      (* the generation this session was forked at, if it was created by
         [fork] — merge provenance: its WAL holds the full post-fork
         divergence exactly while [gen] still equals this *)
  mutable gen : int;
  mutable wal : Wal.writer;
  mutable drains_since_ckpt : int;
  mutable wal_records : int;  (* records in the current generation's WAL *)
  mutable syncs_base : int * int;  (* (fsyncs, coalesced) of retired writers *)
  log_on : bool;
      (* [Engine.log_appends] accepted: the engine records Gamma's
         growth, so a checkpoint may write only that *)
  mutable snap : Snapshot.manifest option;
      (* the current generation's manifest; [None] at generation 0, or
         after a checkpoint that failed part-way (the next one is then
         a full rewrite) *)
  gamma_fp : Fingerprint.t;  (* Gamma's digest lanes as of [snap] *)
  mutable fresh_out : string list list;
      (* lines drained since [snap], one list per drain, newest first *)
  mutable ckpt_full : int;
  mutable ckpt_delta : int;
  mutable ckpt_tuples : int;  (* tuples written by all checkpoints *)
}

type restore_info = {
  r_gen : int;
  r_feeds : int;
  r_drains : int;
  r_pending : int;
  r_wal_tail : Wal.tail;
}

type status = Fresh | Restored of restore_info

let wal_name gen = Printf.sprintf "wal-%d.log" gen
let wal_path_of dir gen = Filename.concat dir (wal_name gen)
let current_path dir = Filename.concat dir "CURRENT"
let fork_path dir = Filename.concat dir "FORK"

let write_current dir gen =
  (* temp + rename + dir fsync: the flip is the commit point *)
  let tmp = Filename.concat dir "CURRENT.tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let s = Printf.sprintf "gen %d\n" gen in
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp (current_path dir);
  let dfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  (try Unix.fsync dfd with Unix.Unix_error _ -> ());
  Unix.close dfd

let read_current dir =
  match open_in (current_path dir) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Scanf.sscanf_opt (input_line ic) "gen %d" (fun g -> g) with
          | Some g -> Some g
          | None | (exception End_of_file) ->
              fail "%s: malformed CURRENT" dir)

(* The FORK marker pins a branch's provenance: the generation its
   divergence window starts at.  Written before the CURRENT flip (a
   visible branch always carries its marker); a stale marker without a
   CURRENT is deleted by a fresh open. *)
let write_fork_base dir base =
  let fd =
    Unix.openfile (fork_path dir)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let b = Bytes.unsafe_of_string (Printf.sprintf "base %d\n" base) in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done;
  Unix.fsync fd;
  Unix.close fd

let read_fork_base dir =
  match open_in (fork_path dir) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Scanf.sscanf_opt (input_line ic) "base %d" (fun g -> g) with
          | Some g -> Some g
          | None | (exception End_of_file) -> fail "%s: malformed FORK" dir)

let mkdir_p dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* -- watermark plumbing ---------------------------------------------- *)

let watermark_of t =
  let s = Engine.session_state ~with_outputs:false t.session in
  {
    Wal.wm_step_no = s.Engine.ss_step_no;
    wm_steps = s.Engine.ss_steps;
    wm_processed = s.Engine.ss_processed;
    wm_outputs_count = s.Engine.ss_outputs_count;
    wm_seq_lanes = s.Engine.ss_seq_lanes;
    wm_out_lanes = Fingerprint.lanes t.out_digest;
  }

let check_watermark t wm ~at =
  let have = watermark_of t in
  if have <> wm then
    fail
      "%s: replayed drain %d diverged from its watermark (recovered \
       state does not reproduce the logged run)"
      t.dir at

(* -- the session operations ------------------------------------------ *)

let feed t tuples =
  Wal.append_feed t.wal tuples;
  Wal.commit t.wal;
  t.wal_records <- t.wal_records + 1;
  Engine.feed t.session tuples

let drain_no_ckpt t =
  let fresh = Engine.drain t.session in
  List.iter (Fingerprint.mix_string t.out_digest) fresh;
  if fresh <> [] then t.fresh_out <- fresh :: t.fresh_out;
  Wal.append_watermark t.wal (watermark_of t);
  Wal.commit t.wal;
  t.wal_records <- t.wal_records + 1;
  fresh

(* Gamma only grows, so generation n+1 can be generation n plus the
   tuples the engine logged since and the lines drained since: a delta.
   The doubling rule keeps every record (tuple or line) written O(1)
   times amortised: deltas accumulate while all runs together, this one
   included, hold fewer records than the base, then one full rewrite
   folds them into a new base at least twice the old one.  Returns the
   manifest written and whether it was a delta. *)
let write_snapshot t ~next =
  let appended = Engine.take_appended t.session in
  let state = Engine.session_state ~with_outputs:false t.session in
  let manifest ~segments ~runs =
    {
      Snapshot.m_gen = next;
      m_schema_hash = t.schema_hash;
      m_step_no = state.Engine.ss_step_no;
      m_steps = state.Engine.ss_steps;
      m_processed = state.Engine.ss_processed;
      m_outputs_count = state.Engine.ss_outputs_count;
      m_seq_lanes = state.Engine.ss_seq_lanes;
      m_out_lanes = Fingerprint.lanes t.out_digest;
      m_gamma_digest = Fingerprint.hex t.gamma_fp;
      m_wal = wal_name next;
      m_segments = segments;
      m_runs = runs;
    }
  in
  let added = List.fold_left (fun n (_, ts) -> n + List.length ts) 0 appended in
  let outputs = List.concat (List.rev t.fresh_out) in
  let lines = List.length outputs in
  let prev = t.snap in
  t.snap <- None;
  match prev with
  | Some prev
    when t.log_on
         && Snapshot.run_records prev + added + lines
            < Snapshot.base_records prev
         && prev.Snapshot.m_outputs_count + lines
            = state.Engine.ss_outputs_count ->
      List.iter
        (fun (_, ts) -> List.iter (Fingerprint.add_tuple t.gamma_fp) ts)
        appended;
      let m =
        Snapshot.write_delta ~dir:t.dir ~prev ~schema_hash:t.schema_hash
          ~manifest_of:(manifest ~segments:prev.Snapshot.m_segments)
          ~outputs
          ~runs:(List.map (fun (s, ts) -> (s, fun f -> List.iter f ts)) appended)
      in
      t.ckpt_delta <- t.ckpt_delta + 1;
      t.ckpt_tuples <- t.ckpt_tuples + added;
      (m, true)
  | _ ->
      (* The digest folds into the write pass: one walk over Gamma. *)
      Fingerprint.set_lanes t.gamma_fp ~lo:0 ~hi:0;
      let count = ref 0 in
      let m =
        Snapshot.write ~dir:t.dir ~gen:next ~schema_hash:t.schema_hash
          ~manifest_of:(manifest ~runs:[])
          ~outputs:(Engine.session_state t.session).Engine.ss_outputs
          ~segments:
            (List.map
               (fun schema ->
                 let store = Engine.session_gamma t.session schema in
                 ( schema,
                   fun f ->
                     store.Store.iter (fun tuple ->
                         Fingerprint.add_tuple t.gamma_fp tuple;
                         incr count;
                         f tuple) ))
               (Engine.stored_tables t.session))
      in
      t.ckpt_full <- t.ckpt_full + 1;
      t.ckpt_tuples <- t.ckpt_tuples + !count;
      (m, false)

let checkpoint t =
  let pending = Engine.session_pending t.session in
  if pending <> 0 then
    invalid_arg
      (Printf.sprintf
         "Durable.checkpoint: %d tuples still pending (drain first)" pending);
  let next = t.gen + 1 in
  let m, delta = write_snapshot t ~next in
  (* Drain any unsynced WAL bytes of the old generation before the flip
     makes it garbage (paranoia: nothing after the flip reads it). *)
  Wal.sync t.wal;
  let new_wal =
    Wal.create (wal_path_of t.dir next) ~schema_hash:t.schema_hash
      ~policy:t.policy
  in
  write_current t.dir next;
  (* Commit point passed: retire the old generation.  Removing its
     snapshot directory only drops names: files the new generation
     links survive. *)
  Wal.close t.wal;
  (try Unix.unlink (wal_path_of t.dir t.gen) with Unix.Unix_error _ -> ());
  Snapshot.remove ~dir:t.dir ~gen:t.gen;
  let fb, cb = t.syncs_base in
  t.syncs_base <- (fb + Wal.fsyncs t.wal, cb + Wal.coalesced_syncs t.wal);
  t.gen <- next;
  t.wal <- new_wal;
  t.drains_since_ckpt <- 0;
  t.wal_records <- 0;
  t.snap <- Some m;
  t.fresh_out <- [];
  Jstar_obs.Journal.info
    (Engine.session_journal t.session)
    ~comp:"persist" ~event:"checkpoint"
    [
      ("gen", Jstar_obs.Json.Num (float_of_int next));
      ("step_no", Jstar_obs.Json.Num (float_of_int m.Snapshot.m_step_no));
      ("kind", Jstar_obs.Json.Str (if delta then "delta" else "full"));
      ("gamma_digest", Jstar_obs.Json.Str m.Snapshot.m_gamma_digest);
    ]

let drain t =
  let fresh = drain_no_ckpt t in
  t.drains_since_ckpt <- t.drains_since_ckpt + 1;
  if t.checkpoint_every > 0 && t.drains_since_ckpt >= t.checkpoint_every then
    checkpoint t;
  fresh

let finish t =
  Wal.close t.wal;
  Engine.finish t.session

let session t = t.session
let generation t = t.gen
let fork_base t = t.fork_base
let dir t = t.dir
let wal_path t = wal_path_of t.dir t.gen
let wal_records t = t.wal_records
let output_lanes t = Fingerprint.lanes t.out_digest
let wal_lag t = Wal.lag t.wal
let wal_fsyncs t = fst t.syncs_base + Wal.fsyncs t.wal
let wal_coalesced_syncs t = snd t.syncs_base + Wal.coalesced_syncs t.wal

let fsync_policy_name t =
  match t.policy with
  | Wal.Always -> "always"
  | Wal.Every n -> Printf.sprintf "every-%d" n
  | Wal.Every_ms n -> Printf.sprintf "every-ms-%d" n
  | Wal.Never -> "never"

let register_metrics t =
  let m = Engine.session_metrics t.session in
  Jstar_obs.Metrics.register_counter m ~name:"wal.fsyncs" (fun () ->
      wal_fsyncs t);
  Jstar_obs.Metrics.register_counter m ~name:"wal.coalesced_syncs" (fun () ->
      wal_coalesced_syncs t);
  Jstar_obs.Metrics.register_gauge m ~name:"wal.policy_window_ms" (fun () ->
      Jstar_obs.Metrics.Int
        (match t.policy with Wal.Every_ms n -> n | _ -> 0));
  Jstar_obs.Metrics.register_counter m ~name:"persist.checkpoints_full"
    (fun () -> t.ckpt_full);
  Jstar_obs.Metrics.register_counter m ~name:"persist.checkpoints_delta"
    (fun () -> t.ckpt_delta);
  Jstar_obs.Metrics.register_counter m
    ~name:"persist.checkpoint_tuples_written" (fun () -> t.ckpt_tuples);
  Jstar_obs.Metrics.register_gauge m ~name:"persist.snapshot_runs" (fun () ->
      Jstar_obs.Metrics.Int
        (match t.snap with
        | Some s -> List.length s.Snapshot.m_runs
        | None -> 0))

(* -- open / recovery ------------------------------------------------- *)

(* [session] must hold exactly generation [gen]'s snapshot (described
   by [snap], with Gamma lanes [gamma_fp]): the append log starts here,
   so everything the WAL replays on top is logged. *)
let make ~checkpoint_every ~policy ~dir ~tables ~schema_hash ~session
    ~out_digest ~fork_base ~gen ~wal ~wal_records ~snap ~gamma_fp =
  {
    dir;
    session;
    tables;
    schema_hash;
    policy;
    checkpoint_every;
    fork_base;
    out_digest;
    gen;
    wal;
    drains_since_ckpt = 0;
    wal_records;
    syncs_base = (0, 0);
    log_on = Engine.log_appends session;
    snap;
    gamma_fp;
    fresh_out = [];
    ckpt_full = 0;
    ckpt_delta = 0;
    ckpt_tuples = 0;
  }

let fresh_session ~checkpoint_every ~policy ~dir ~tables ~schema_hash frozen
    config =
  make ~checkpoint_every ~policy ~dir ~tables ~schema_hash
    ~session:(Engine.start frozen config) ~out_digest:(Fingerprint.create ())
    ~fork_base:None ~gen:0
    ~wal:(Wal.create (wal_path_of dir 0) ~schema_hash ~policy)
    ~wal_records:0 ~snap:None ~gamma_fp:(Fingerprint.create ())

let recover ~checkpoint_every ~policy ~dir ~tables ~schema_hash frozen config
    gen =
  let session = Engine.start frozen config in
  let out_digest = Fingerprint.create () in
  (* 1. Rebuild the database from the snapshot (generation 0 = empty). *)
  let snap, gamma_fp =
    if gen = 0 then (None, Fingerprint.create ())
    else begin
    let manifest =
      try Snapshot.read_manifest ~dir ~gen ~expect_hash:schema_hash
      with Snapshot.Snapshot_error m -> fail "%s" m
    in
    let outputs =
      try
        Snapshot.load ~dir ~gen ~manifest ~tables (fun tuple ->
            Engine.load_tuple session tuple)
      with Snapshot.Snapshot_error m -> fail "%s" m
    in
    Engine.restore_session_state session
      {
        Engine.ss_step_no = manifest.Snapshot.m_step_no;
        ss_steps = manifest.Snapshot.m_steps;
        ss_processed = manifest.Snapshot.m_processed;
        ss_outputs_count = manifest.Snapshot.m_outputs_count;
        ss_outputs = outputs;
        ss_seq_lanes = manifest.Snapshot.m_seq_lanes;
      };
    let lo, hi = manifest.Snapshot.m_out_lanes in
    Fingerprint.set_lanes out_digest ~lo ~hi;
    (* The restore oracle: the rebuilt stores must reproduce the
       fingerprint recorded when the snapshot was taken — for a delta
       generation, the base's digest plus every run's lanes. *)
    let fp = Engine.gamma_fingerprint session in
    let got = Fingerprint.hex fp in
    if got <> manifest.Snapshot.m_gamma_digest then
      fail
        "%s: restored database fingerprint %s does not match snapshot \
         manifest %s"
        dir got manifest.Snapshot.m_gamma_digest;
    (Some manifest, fp)
    end
  in
  (* 2. Decide how much of the WAL to trust. *)
  let path = wal_path_of dir gen in
  let records, tail =
    try Wal.read path ~tables ~expect_hash:schema_hash with
    | Wal.Wal_error m -> fail "%s" m
    | Unix.Unix_error (e, _, p) -> fail "%s: %s" p (Unix.error_message e)
  in
  let kept, valid_to =
    match tail with
    | Wal.Clean | Wal.Torn _ ->
        (* A torn tail is the expected residue of a crash mid-append:
           every complete record before it — including trailing feeds
           not yet covered by a watermark — was durably logged, so all
           of it replays.  [valid_to] drops only the partial frame. *)
        let valid_to =
          List.fold_left (fun _ (_, off) -> off) Wal.header_len records
        in
        (records, valid_to)
    | Wal.Corrupt _ ->
        (* Mid-log corruption (a flipped bit, not a torn write): roll
           back to the last watermark — records beyond it may be
           arbitrarily damaged, and the watermark is the last point
           whose digests can vouch for the state. *)
        let kept_to =
          List.fold_left
            (fun acc (r, off) ->
              match r with Wal.Watermark _ -> off | Wal.Feed _ -> acc)
            Wal.header_len records
        in
        (List.filter (fun (_, off) -> off <= kept_to) records, kept_to)
  in
  (* 3. Replay through the normal feed/drain path, verifying each
     watermark. *)
  let feeds = ref 0 and drains = ref 0 and pending = ref 0 in
  let t =
    make ~checkpoint_every ~policy ~dir ~tables ~schema_hash ~session
      ~out_digest ~fork_base:(read_fork_base dir) ~gen
      ~wal:(Wal.reopen path ~valid_to ~policy)
      ~wal_records:(List.length kept) ~snap ~gamma_fp
  in
  List.iter
    (fun (record, off) ->
      match record with
      | Wal.Feed tuples ->
          incr feeds;
          pending := !pending + List.length tuples;
          Engine.feed session tuples
      | Wal.Watermark wm ->
          incr drains;
          pending := 0;
          let fresh = Engine.drain session in
          List.iter (Fingerprint.mix_string out_digest) fresh;
          if fresh <> [] then t.fresh_out <- fresh :: t.fresh_out;
          check_watermark t wm ~at:off)
    kept;
  let tail_name =
    match tail with
    | Wal.Clean -> "clean"
    | Wal.Torn _ -> "torn"
    | Wal.Corrupt _ -> "corrupt"
  in
  Jstar_obs.Journal.info
    (Engine.session_journal session)
    ~comp:"persist" ~event:"recovery"
    [
      ("gen", Jstar_obs.Json.Num (float_of_int gen));
      ("feeds_replayed", Jstar_obs.Json.Num (float_of_int !feeds));
      ("drains_replayed", Jstar_obs.Json.Num (float_of_int !drains));
      ("pending", Jstar_obs.Json.Num (float_of_int !pending));
      ("wal_tail", Jstar_obs.Json.Str tail_name);
    ];
  ( t,
    Restored
      {
        r_gen = gen;
        r_feeds = !feeds;
        r_drains = !drains;
        r_pending = !pending;
        r_wal_tail = tail;
      } )

let open_ ?(checkpoint_every = 0) ?(fsync = Wal.Always) ~dir frozen config =
  mkdir_p dir;
  let tables = frozen.Program.tables in
  let schema_hash = Codec.schema_hash tables in
  let policy = fsync in
  match read_current dir with
  | None ->
      (* no CURRENT — any FORK marker here is the residue of a fork
         that crashed before its commit point, not provenance *)
      (try Unix.unlink (fork_path dir) with Unix.Unix_error _ -> ());
      let t =
        fresh_session ~checkpoint_every ~policy ~dir ~tables ~schema_hash
          frozen config
      in
      write_current dir 0;
      register_metrics t;
      (t, Fresh)
  | Some gen ->
      let t, status =
        recover ~checkpoint_every ~policy ~dir ~tables ~schema_hash frozen
          config gen
      in
      register_metrics t;
      (t, status)

(* -- branching -------------------------------------------------------- *)

let fork t ~dir =
  let pending = Engine.session_pending t.session in
  if pending <> 0 then
    invalid_arg
      (Printf.sprintf "Durable.fork: %d tuples still pending (drain first)"
         pending);
  if Sys.file_exists (current_path dir) then
    invalid_arg (Printf.sprintf "Durable.fork: %s already holds a session" dir);
  (* Bring the snapshot up to date only when the WAL actually diverged
     from it — a fork right after a checkpoint (or another fork) links
     the existing generation untouched. *)
  if t.wal_records > 0 || t.gen = 0 then checkpoint t;
  mkdir_p dir;
  let gen = t.gen in
  let src_snap = Filename.concat t.dir (Snapshot.dir_name gen) in
  let dst_snap = Filename.concat dir (Snapshot.dir_name gen) in
  mkdir_p dst_snap;
  Array.iter
    (fun f ->
      Snapshot.link_or_copy (Filename.concat src_snap f) (Filename.concat dst_snap f))
    (Sys.readdir src_snap);
  (let dfd = Unix.openfile dst_snap [ Unix.O_RDONLY ] 0 in
   (try Unix.fsync dfd with Unix.Unix_error _ -> ());
   Unix.close dfd);
  (* A fresh, empty WAL: the branch's future diverges here. *)
  Wal.close
    (Wal.create (wal_path_of dir gen) ~schema_hash:t.schema_hash
       ~policy:t.policy);
  write_fork_base dir gen;
  write_current dir gen;
  Jstar_obs.Journal.info
    (Engine.session_journal t.session)
    ~comp:"persist" ~event:"fork"
    [
      ("gen", Jstar_obs.Json.Num (float_of_int gen));
      ("into", Jstar_obs.Json.Str dir);
    ];
  gen
