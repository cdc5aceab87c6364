(* Durable sessions (PR 5): codec round-trips, WAL framing and tail
   classification (torn vs corrupt), snapshot checkpoints, and the
   crash-recovery property — for random feed schedules at 1/2/4
   threads, killing the log at an arbitrary byte (or flipping one) and
   restoring must reproduce exactly the digests of an uninterrupted run
   over the surviving prefix. *)

open Jstar_core
open Jstar_persist

let v_int i = Value.Int i

(* Fresh scratch directory per test run. *)
let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jstar-persist-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* ------------------------------------------------------------------ *)
(* Fixture: session-fed transitive closure *)

type fixture = { f_program : Program.t; f_edge : Schema.t }

let closure_fixture () =
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
  Program.rule p "close" ~trigger:path (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  Program.output p path (fun t ->
      Printf.sprintf "path %d %d" (Tuple.int t "a") (Tuple.int t "b"));
  { f_program = p; f_edge = edge }

let config_of threads =
  let c = if threads = 1 then Config.default else Config.parallel ~threads () in
  { c with Config.digest = true }

let edge_tuple fx (a, b) = Tuple.make fx.f_edge [| v_int a; v_int b |]

(* A feed schedule: batches of edges, each optionally followed by a
   drain. *)
type event = Batch of (int * int) list | Drain

let apply_durable fx t = function
  | Batch edges -> Durable.feed t (List.map (edge_tuple fx) edges)
  | Drain -> ignore (Durable.drain t)

(* The uninterrupted oracle: a plain engine session run over exactly the
   WAL records that survived, mirroring recovery's tail policy. *)
let surviving (records, tail) =
  match tail with
  | Wal.Clean | Wal.Torn _ -> List.map fst records
  | Wal.Corrupt _ ->
      let kept_to =
        List.fold_left
          (fun acc (r, off) ->
            match r with Wal.Watermark _ -> off | Wal.Feed _ -> acc)
          0 records
      in
      List.filter_map
        (fun (r, off) -> if off <= kept_to then Some r else None)
        records

let replay_plain frozen config records =
  let s = Engine.start frozen config in
  let out_d = Fingerprint.create () in
  List.iter
    (function
      | Wal.Feed ts -> Engine.feed s ts
      | Wal.Watermark _ ->
          List.iter (Fingerprint.mix_string out_d) (Engine.drain s))
    records;
  (s, out_d)

let digest3 result =
  match result.Engine.digest with
  | Some d -> (d.Engine.d_gamma, d.Engine.d_classes, d.Engine.d_outputs)
  | None -> Alcotest.fail "digest missing"

(* Drain-to-quiescence + finish both sessions and require every digest
   to agree. *)
let check_equiv ~what durable (oracle, oracle_out) =
  Alcotest.(check string)
    (what ^ ": gamma digest after restore")
    (Engine.gamma_digest oracle)
    (Engine.gamma_digest (Durable.session durable));
  Alcotest.(check (pair int int))
    (what ^ ": output digest after restore")
    (Fingerprint.lanes oracle_out)
    (Durable.output_lanes durable);
  ignore (Engine.drain oracle);
  ignore (Durable.drain durable);
  let r_oracle = Engine.finish oracle in
  let r_durable = Durable.finish durable in
  Alcotest.(check (triple string string string))
    (what ^ ": final digests")
    (digest3 r_oracle) (digest3 r_durable);
  Alcotest.(check (list string))
    (what ^ ": full output stream")
    r_oracle.Engine.outputs r_durable.Engine.outputs

(* ------------------------------------------------------------------ *)
(* CRC32 + codec *)

let test_crc32 () =
  (* the standard check vector for CRC-32/IEEE *)
  Alcotest.(check int) "123456789" 0xcbf43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "slice" 0xcbf43926 (Crc32.bytes b 2 9)

let test_codec_roundtrip () =
  let p = Program.create () in
  let mixed =
    Program.table p "Mixed"
      ~columns:
        Schema.
          [
            int_col "i"; float_col "f"; string_col "s"; bool_col "b";
            float_col "widened";
          ]
      ~orderby:Schema.[ Lit "Mixed" ]
      ()
  in
  let tables = Array.of_list (Program.schemas p) in
  let samples =
    [
      Tuple.make mixed
        [|
          Value.Int 42; Value.Float 2.5; Value.Str "hé\x00llo"; Value.Bool true;
          Value.Float 0.1;
        |];
      (* an Int living in a TFloat column must round-trip as an Int *)
      Tuple.make mixed
        [|
          Value.Int (-7); Value.Float nan; Value.Str ""; Value.Bool false;
          Value.Int 3;
        |];
      Tuple.make mixed
        [|
          Value.Int max_int; Value.Float infinity; Value.Str (String.make 300 'x');
          Value.Bool true; Value.Float (-0.0);
        |];
    ]
  in
  let b = Buffer.create 256 in
  List.iter (Codec.encode_tuple b) samples;
  let src = Buffer.to_bytes b in
  let pos = ref 0 in
  List.iter
    (fun t ->
      let t' = Codec.decode_tuple ~tables src pos in
      Alcotest.(check bool)
        ("round-trips " ^ Tuple.show t)
        true
        (Tuple.equal t t'
        && Array.for_all2
             (fun a b ->
               (* distinguish Int 3 from Float 3.0 representations *)
               Value.type_of a = Value.type_of b)
             (Tuple.fields t) (Tuple.fields t')))
    samples;
  Alcotest.(check int) "consumed all" (Bytes.length src) !pos;
  (* corruption is a Codec_error, not a crash *)
  let src = Buffer.to_bytes b in
  Bytes.set src 0 '\xff';
  Alcotest.check_raises "bad table id"
    (Codec.Codec_error "table id 255 out of range") (fun () ->
      ignore (Codec.decode_tuple ~tables src (ref 0)))

let test_schema_hash () =
  let fx1 = closure_fixture () and fx2 = closure_fixture () in
  let h t = Codec.schema_hash (Array.of_list (Program.schemas t)) in
  Alcotest.(check int)
    "same program, same hash"
    (h fx1.f_program) (h fx2.f_program);
  let p = Program.create () in
  let _ =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "a"; string_col "b" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  Alcotest.(check bool)
    "different column type, different hash" false
    (h fx1.f_program = h p)

(* ------------------------------------------------------------------ *)
(* WAL framing *)

let wal_fixture_write dir fx events =
  let tables = Array.of_list (Program.schemas fx.f_program) in
  let hash = Codec.schema_hash tables in
  let path = Filename.concat dir "wal-0.log" in
  let w = Wal.create path ~schema_hash:hash ~policy:Wal.Never in
  let n = ref 0 in
  List.iter
    (function
      | Batch edges ->
          Wal.append_feed w (List.map (edge_tuple fx) edges)
      | Drain ->
          incr n;
          Wal.append_watermark w
            {
              Wal.wm_step_no = !n;
              wm_steps = !n;
              wm_processed = !n;
              wm_outputs_count = !n;
              wm_seq_lanes = (!n, - !n);
              wm_out_lanes = (2 * !n, 3 * !n);
            })
    events;
  Wal.close w;
  (path, tables, hash)

(* Every_ms group commit: commits inside the window ride the page cache
   (counted as coalesced); one past the window pays the fsync. *)
let test_wal_every_ms_group_commit () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let tables = Array.of_list (Program.schemas fx.f_program) in
  let hash = Codec.schema_hash tables in
  let path = Filename.concat dir "wal-ms.log" in
  let w = Wal.create path ~schema_hash:hash ~policy:(Wal.Every_ms 200) in
  Wal.append_feed w [ edge_tuple fx (1, 2) ];
  Wal.commit w;
  Wal.append_feed w [ edge_tuple fx (2, 3) ];
  Wal.commit w;
  Alcotest.(check int) "inside the window: no fsync" 0 (Wal.fsyncs w);
  Alcotest.(check int) "both commits coalesced" 2 (Wal.coalesced_syncs w);
  Unix.sleepf 0.25;
  Wal.append_feed w [ edge_tuple fx (3, 4) ];
  Wal.commit w;
  Alcotest.(check int) "past the window: one fsync" 1 (Wal.fsyncs w);
  Alcotest.(check int) "lag drained" 0 (Wal.lag w).Wal.lag_records;
  Wal.close w;
  (* the records are all readable back regardless of sync timing *)
  let records, tail = Wal.read path ~tables ~expect_hash:hash in
  Alcotest.(check int) "all records present" 3 (List.length records);
  Alcotest.(check bool) "clean tail" true (tail = Wal.Clean)

(* The durable session surfaces the policy and its counters for the
   ops plane. *)
let test_durable_every_ms_lanes () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let frozen = Program.freeze fx.f_program in
  let d, _ =
    Durable.open_ ~fsync:(Wal.Every_ms 150) ~dir frozen (config_of 1)
  in
  Alcotest.(check string)
    "policy name" "every-ms-150" (Durable.fsync_policy_name d);
  Durable.feed d [ edge_tuple fx (1, 2) ];
  ignore (Durable.drain d);
  Alcotest.(check bool)
    "commits coalesced inside the window" true
    (Durable.wal_coalesced_syncs d > 0);
  ignore (Durable.finish d)

let test_wal_roundtrip () =
  let fx = closure_fixture () in
  let events =
    [ Batch [ (1, 2); (2, 3) ]; Drain; Batch []; Batch [ (9, 9) ]; Drain ]
  in
  let path, tables, hash = wal_fixture_write (fresh_dir ()) fx events in
  let records, tail = Wal.read path ~tables ~expect_hash:hash in
  Alcotest.(check bool) "clean tail" true (tail = Wal.Clean);
  Alcotest.(check int) "record count" (List.length events) (List.length records);
  (match List.map fst records with
  | [ Wal.Feed [ a; b ]; Wal.Watermark w1; Wal.Feed []; Wal.Feed [ c ];
      Wal.Watermark w2 ] ->
      Alcotest.(check bool)
        "tuples round-trip" true
        (Tuple.equal a (edge_tuple fx (1, 2))
        && Tuple.equal b (edge_tuple fx (2, 3))
        && Tuple.equal c (edge_tuple fx (9, 9)));
      Alcotest.(check (pair int int)) "lanes" (2, 3) w1.Wal.wm_out_lanes;
      Alcotest.(check int) "second watermark" 2 w2.Wal.wm_step_no
  | _ -> Alcotest.fail "unexpected record shapes");
  (* wrong schema hash refused *)
  Alcotest.(check bool)
    "schema hash checked" true
    (match Wal.read path ~tables ~expect_hash:(hash + 1) with
    | exception Wal.Wal_error _ -> true
    | _ -> false)

let test_wal_torn_tail () =
  let fx = closure_fixture () in
  let events = [ Batch [ (1, 2) ]; Drain; Batch [ (3, 4) ] ] in
  let path, tables, hash = wal_fixture_write (fresh_dir ()) fx events in
  let full = (Unix.stat path).Unix.st_size in
  (* chop one byte: the final feed record becomes torn; the records
     before it — including the watermark — survive *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (full - 1);
  Unix.close fd;
  let records, tail = Wal.read path ~tables ~expect_hash:hash in
  (match tail with
  | Wal.Torn _ -> ()
  | _ -> Alcotest.fail "expected torn tail");
  Alcotest.(check int) "prefix survives" 2 (List.length records)

let test_wal_bitflip_is_corrupt () =
  let fx = closure_fixture () in
  let events = [ Batch [ (1, 2) ]; Drain; Batch [ (3, 4) ]; Drain ] in
  let path, tables, hash = wal_fixture_write (fresh_dir ()) fx events in
  let records, _ = Wal.read path ~tables ~expect_hash:hash in
  (* flip one payload byte inside the second record (the watermark) *)
  let first_end = snd (List.hd records) in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd (first_end + 7) Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
  ignore (Unix.lseek fd (first_end + 7) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let records', tail = Wal.read path ~tables ~expect_hash:hash in
  (match tail with
  | Wal.Corrupt off ->
      Alcotest.(check int) "corruption located" first_end off
  | _ -> Alcotest.fail "expected corrupt tail");
  Alcotest.(check int) "only the first record survives" 1 (List.length records')

(* ------------------------------------------------------------------ *)
(* Durable sessions: deterministic flows *)

let run_durable ?(checkpoint_every = 0) ?(fsync = Wal.Never) ~threads dir fx
    events =
  let frozen = Program.freeze fx.f_program in
  let t, status =
    Durable.open_ ~checkpoint_every ~fsync ~dir frozen (config_of threads)
  in
  List.iter (apply_durable fx t) events;
  (t, status)

let schedule_a =
  [
    Batch [ (0, 1); (1, 2) ];
    Drain;
    Batch [ (2, 3) ];
    Batch [ (3, 4) ];
    Drain;
    Batch [ (4, 0); (1, 4) ];
    Drain;
  ]

let test_durable_restart_clean () =
  (* stop without finishing, reopen: the WAL replays the whole session
     and the restored digests match an uninterrupted run *)
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let t, status = run_durable ~threads:2 dir fx schedule_a in
  Alcotest.(check bool) "fresh open" true (status = Durable.Fresh);
  ignore (Durable.finish t);
  let fx2 = closure_fixture () in
  let frozen = Program.freeze fx2.f_program in
  let t2, status2 = Durable.open_ ~dir frozen (config_of 1) in
  (match status2 with
  | Durable.Restored r ->
      Alcotest.(check int) "three drains replayed" 3 r.Durable.r_drains;
      Alcotest.(check bool) "clean tail" true (r.Durable.r_wal_tail = Wal.Clean)
  | Durable.Fresh -> Alcotest.fail "expected restore");
  let tables = Array.of_list (Program.schemas fx2.f_program) in
  let hash = Codec.schema_hash tables in
  let oracle =
    replay_plain frozen (config_of 1)
      (surviving
         (Wal.read (Durable.wal_path t2) ~tables ~expect_hash:hash))
  in
  check_equiv ~what:"clean restart" t2 oracle

let test_durable_checkpoint_and_restore () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  (* checkpoint after every drain: three generations retired *)
  let t, _ = run_durable ~checkpoint_every:1 ~threads:1 dir fx schedule_a in
  Alcotest.(check int) "generation advanced" 3 (Durable.generation t);
  Alcotest.(check bool)
    "old generations deleted" false
    (Sys.file_exists (Filename.concat dir "wal-0.log")
    || Sys.file_exists (Filename.concat dir "snap-1"));
  let uninterrupted = Durable.finish t in
  (* restart: everything comes back from snapshot 3 + an empty log *)
  let fx2 = closure_fixture () in
  let t2, status = Durable.open_ ~dir (Program.freeze fx2.f_program) (config_of 4) in
  (match status with
  | Durable.Restored r ->
      Alcotest.(check int) "restored from gen 3" 3 r.Durable.r_gen;
      Alcotest.(check int) "no WAL records to replay" 0
        (r.Durable.r_feeds + r.Durable.r_drains)
  | Durable.Fresh -> Alcotest.fail "expected restore");
  ignore (Durable.drain t2);
  let restored = Durable.finish t2 in
  Alcotest.(check (triple string string string))
    "digests survive snapshot round-trip"
    (digest3 uninterrupted) (digest3 restored);
  Alcotest.(check (list string))
    "outputs survive snapshot round-trip"
    uninterrupted.Engine.outputs restored.Engine.outputs

let test_checkpoint_requires_quiescence () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let t, _ = run_durable ~threads:1 dir fx [ Batch [ (1, 2) ] ] in
  Alcotest.(check bool)
    "pending tuples counted" true
    (Engine.session_pending (Durable.session t) > 0);
  (match Durable.checkpoint t with
  | () -> Alcotest.fail "checkpoint accepted pending tuples"
  | exception Invalid_argument _ -> ());
  ignore (Durable.drain t);
  Durable.checkpoint t;
  ignore (Durable.finish t)

let test_corrupt_snapshot_detected () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let t, _ = run_durable ~checkpoint_every:1 ~threads:1 dir fx schedule_a in
  let gen = Durable.generation t in
  ignore (Durable.finish t);
  (* flip a byte inside the Path segment *)
  let seg =
    Filename.concat dir
      (Filename.concat (Printf.sprintf "snap-%d" gen) "seg-Path.dat")
  in
  let fd = Unix.openfile seg [ Unix.O_RDWR ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
  ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let fx2 = closure_fixture () in
  Alcotest.(check bool)
    "restore refuses corrupt segment" true
    (match Durable.open_ ~dir (Program.freeze fx2.f_program) (config_of 1) with
    | exception Durable.Recovery_error _ -> true
    | _ -> false)

let test_schema_change_detected () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let t, _ = run_durable ~threads:1 dir fx [ Batch [ (1, 2) ]; Drain ] in
  ignore (Durable.finish t);
  let p = Program.create () in
  let _ =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "a"; int_col "b"; int_col "w" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  Alcotest.(check bool)
    "restore refuses changed schema" true
    (match Durable.open_ ~dir (Program.freeze p) Config.default with
    | exception Durable.Recovery_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Crash-recovery properties *)

let schedule_gen =
  QCheck.Gen.(
    let batch =
      list_size (int_range 0 3)
        (pair (int_range 0 5) (int_range 0 5))
    in
    list_size (int_range 1 8)
      (oneof [ map (fun b -> Batch b) batch; return Drain ]))

let schedule_print events =
  String.concat ";"
    (List.map
       (function
         | Drain -> "drain"
         | Batch es ->
             "batch["
             ^ String.concat ","
                 (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) es)
             ^ "]")
       events)

(* Kill at an arbitrary byte: write the schedule durably, truncate the
   log at every interesting offset in turn, restore, and require the
   digests of an uninterrupted run over the surviving records. *)
let prop_crash_recovery =
  QCheck.Test.make ~name:"crash at any WAL byte restores a digest-equal run"
    ~count:20
    (QCheck.make ~print:(fun (e, t, c) ->
         Printf.sprintf "%s threads=%d cut=%d" (schedule_print e) t c)
       QCheck.Gen.(
         triple schedule_gen (oneofl [ 1; 2; 4 ]) (int_range 0 1000)))
    (fun (events, threads, cut_seed) ->
      let dir = fresh_dir () in
      let fx = closure_fixture () in
      let t, _ = run_durable ~threads dir fx events in
      ignore (Durable.finish t);
      let path = Filename.concat dir "wal-0.log" in
      let size = (Unix.stat path).Unix.st_size in
      (* cut anywhere from "everything after the header lost" to "nothing
         lost" *)
      let cut = Wal.header_len + (cut_seed * (size - Wal.header_len) / 1000) in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      let fx2 = closure_fixture () in
      let frozen = Program.freeze fx2.f_program in
      let tables = Array.of_list (Program.schemas fx2.f_program) in
      let hash = Codec.schema_hash tables in
      let records = surviving (Wal.read path ~tables ~expect_hash:hash) in
      let t2, status = Durable.open_ ~dir frozen (config_of threads) in
      (match status with
      | Durable.Restored _ -> ()
      | Durable.Fresh -> QCheck.Test.fail_report "expected restore");
      check_equiv ~what:"crash recovery" t2
        (replay_plain frozen (config_of 1) records);
      true)

(* Bit-flip: corrupting any single WAL byte must either leave a
   still-valid prefix (when the flip lands past the last watermark) or
   roll recovery back to the last watermark — never crash, never
   restore undetected-bad state. *)
let prop_bitflip_recovery =
  QCheck.Test.make
    ~name:"bit-flipped WAL record rolls back to the last watermark" ~count:20
    (QCheck.make ~print:(fun (e, t, o, bit) ->
         Printf.sprintf "%s threads=%d off=%d bit=%d" (schedule_print e) t o bit)
       QCheck.Gen.(
         quad schedule_gen (oneofl [ 1; 2; 4 ]) (int_range 0 1000)
           (int_range 0 7)))
    (fun (events, threads, off_seed, bit) ->
      let dir = fresh_dir () in
      let fx = closure_fixture () in
      (* guarantee at least one record so there is a byte to flip *)
      let events = Batch [ (0, 1) ] :: events @ [ Drain ] in
      let t, _ = run_durable ~threads dir fx events in
      ignore (Durable.finish t);
      let path = Filename.concat dir "wal-0.log" in
      let size = (Unix.stat path).Unix.st_size in
      let off =
        Wal.header_len
        + (off_seed * (size - Wal.header_len - 1) / 1000)
      in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl bit)));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let fx2 = closure_fixture () in
      let frozen = Program.freeze fx2.f_program in
      let tables = Array.of_list (Program.schemas fx2.f_program) in
      let hash = Codec.schema_hash tables in
      let records = surviving (Wal.read path ~tables ~expect_hash:hash) in
      let t2, status = Durable.open_ ~dir frozen (config_of threads) in
      (match status with
      | Durable.Restored _ -> ()
      | Durable.Fresh -> QCheck.Test.fail_report "expected restore");
      check_equiv ~what:"bit flip" t2
        (replay_plain frozen (config_of 1) records);
      true)

(* Checkpoint + crash: a random prefix checkpoints, the tail of the log
   is lost, and recovery must land exactly on snapshot + surviving
   suffix. *)
let prop_checkpoint_then_crash =
  QCheck.Test.make
    ~name:"checkpoint + truncated WAL suffix restores digest-equal state"
    ~count:15
    (QCheck.make ~print:(fun (e, t, c) ->
         Printf.sprintf "%s threads=%d cut=%d" (schedule_print e) t c)
       QCheck.Gen.(
         triple schedule_gen (oneofl [ 1; 2; 4 ]) (int_range 0 1000)))
    (fun (events, threads, cut_seed) ->
      let dir = fresh_dir () in
      let fx = closure_fixture () in
      (* force a checkpoint in the middle of the schedule *)
      let events = (Batch [ (0, 1) ] :: events) @ [ Drain ] in
      let frozen = Program.freeze fx.f_program in
      let t, _ =
        Durable.open_ ~checkpoint_every:0 ~fsync:Wal.Never ~dir frozen
          (config_of threads)
      in
      let half = List.length events / 2 in
      List.iteri
        (fun i ev ->
          apply_durable fx t ev;
          if i = half then begin
            (match ev with Drain -> () | Batch _ -> ignore (Durable.drain t));
            Durable.checkpoint t
          end)
        events;
      let gen = Durable.generation t in
      (* events fed after the checkpoint live only in the current WAL *)
      ignore (Durable.finish t);
      let path = Filename.concat dir (Printf.sprintf "wal-%d.log" gen) in
      let size = (Unix.stat path).Unix.st_size in
      let cut = Wal.header_len + (cut_seed * (size - Wal.header_len) / 1000) in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      (* oracle: reconstruct the full surviving history = snapshot
         contents (itself provably digest-equal) + WAL suffix; easiest
         faithful oracle is a second durable restore onto 1 thread *)
      let fx2 = closure_fixture () in
      let frozen2 = Program.freeze fx2.f_program in
      let t2, s2 = Durable.open_ ~dir frozen2 (config_of threads) in
      (match s2 with
      | Durable.Restored r ->
          if r.Durable.r_gen <> gen then
            QCheck.Test.fail_reportf "restored from gen %d, wrote %d"
              r.Durable.r_gen gen
      | Durable.Fresh -> QCheck.Test.fail_report "expected restore");
      let fx3 = closure_fixture () in
      let frozen3 = Program.freeze fx3.f_program in
      let t3, _ = Durable.open_ ~dir frozen3 (config_of 1) in
      ignore (Durable.drain t2);
      ignore (Durable.drain t3);
      let r2 = Durable.finish t2 and r3 = Durable.finish t3 in
      if digest3 r2 <> digest3 r3 then
        QCheck.Test.fail_report "thread-count digests diverge after restore";
      if r2.Engine.outputs <> r3.Engine.outputs then
        QCheck.Test.fail_report "outputs diverge after restore";
      true)

(* ------------------------------------------------------------------ *)
(* Incremental checkpoints *)

let counter d name =
  match
    Jstar_obs.Metrics.read (Engine.session_metrics (Durable.session d)) name
  with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "metric %s not registered" name

(* A long schedule of small feeds after one large one: with a
   checkpoint after every drain, the runs outgrow the base several
   times over, so it yields both delta and full generations. *)
let long_schedule =
  Batch (List.init 12 (fun i -> (100 + (2 * i), 101 + (2 * i))))
  :: Drain
  :: List.concat
       (List.init 24 (fun k ->
            [ Batch [ (k, k + 1); (k + 1, k + 2) ]; Batch [ (50 + k, 50) ]; Drain ]))

(* The session state a restore must reproduce at a checkpoint. *)
let observe session out_lanes =
  (Engine.gamma_digest session, out_lanes, Engine.session_state session)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  let rec go src dst =
    Array.iter
      (fun f ->
        let s = Filename.concat src f and d = Filename.concat dst f in
        if Sys.is_directory s then begin
          Unix.mkdir d 0o755;
          go s d
        end
        else
          Out_channel.with_open_bin d (fun oc ->
              output_string oc (In_channel.with_open_bin s In_channel.input_all)))
      (Sys.readdir src)
  in
  go src dst

let has_runs dir gen =
  Array.exists
    (fun f -> String.starts_with ~prefix:"run-" f)
    (Sys.readdir (Filename.concat dir (Snapshot.dir_name gen)))

let restore_equal ~what dir config want =
  let fx = closure_fixture () in
  let d, status = Durable.open_ ~dir (Program.freeze fx.f_program) config in
  (match status with
  | Durable.Restored _ -> ()
  | Durable.Fresh -> Alcotest.failf "%s: expected a restore" what);
  let gamma, lanes, state = want in
  let g, l, st = observe (Durable.session d) (Durable.output_lanes d) in
  Alcotest.(check string) (what ^ ": gamma digest") gamma g;
  Alcotest.(check (pair int int)) (what ^ ": output lanes") lanes l;
  Alcotest.(check (list string))
    (what ^ ": outputs") state.Engine.ss_outputs st.Engine.ss_outputs;
  Alcotest.(check bool) (what ^ ": session state") true (state = st);
  d

(* Every generation of a checkpoint-per-drain run, delta or full,
   restores to exactly the uninterrupted run's state at that point.
   [no_delta] moves Path's Gamma inserts into concurrent Phase B. *)
let test_incremental_checkpoints ?(no_delta = []) threads () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let frozen = Program.freeze fx.f_program in
  let config_at n = { (config_of n) with Config.no_delta } in
  let d, _ =
    Durable.open_ ~checkpoint_every:1 ~fsync:Wal.Never ~dir frozen
      (config_at threads)
  in
  let oracle = Engine.start frozen (config_at 1) in
  let oracle_out = Fingerprint.create () in
  let saved = ref [] in
  List.iter
    (fun ev ->
      apply_durable fx d ev;
      match ev with
      | Batch edges -> Engine.feed oracle (List.map (edge_tuple fx) edges)
      | Drain ->
          List.iter (Fingerprint.mix_string oracle_out) (Engine.drain oracle);
          let copy = dir ^ Printf.sprintf "-gen%d" (Durable.generation d) in
          copy_dir dir copy;
          saved :=
            ( copy,
              has_runs dir (Durable.generation d),
              observe oracle (Fingerprint.lanes oracle_out) )
            :: !saved)
    long_schedule;
  let full = counter d "persist.checkpoints_full"
  and delta = counter d "persist.checkpoints_delta" in
  Alcotest.(check bool) "took delta checkpoints" true (delta > 0);
  Alcotest.(check bool) "took more than one full checkpoint" true (full > 1);
  Alcotest.(check int) "one checkpoint per drain" (List.length !saved)
    (full + delta);
  Alcotest.(check int) "the delta generations carry run files" delta
    (List.length (List.filter (fun (_, runs, _) -> runs) !saved));
  ignore (Durable.finish d);
  List.iter
    (fun (copy, _, want) ->
      ignore
        (Durable.finish (restore_equal ~what:copy copy (config_at threads) want)))
    !saved

(* A flipped byte in a delta run fails its record CRC. *)
let test_delta_run_bitflip () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let events =
    [ Batch (List.init 8 (fun i -> (2 * i, (2 * i) + 1))); Drain;
      Batch [ (30, 31) ]; Drain ]
  in
  let t, _ = run_durable ~checkpoint_every:1 ~threads:1 dir fx events in
  let gen = Durable.generation t in
  ignore (Durable.finish t);
  let run = Filename.concat (Filename.concat dir (Snapshot.dir_name gen))
      (Printf.sprintf "run-%d-Path.dat" gen) in
  Alcotest.(check bool) "the last generation is a delta" true
    (Sys.file_exists run);
  let fd = Unix.openfile run [ Unix.O_RDWR ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd (size - 6) Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x04));
  ignore (Unix.lseek fd (size - 6) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let fx2 = closure_fixture () in
  Alcotest.(check bool)
    "restore refuses the corrupt run" true
    (match Durable.open_ ~dir (Program.freeze fx2.f_program) (config_of 1) with
    | exception Durable.Recovery_error _ -> true
    | _ -> false)

(* A crash after snap-(n+1) is on disk but before CURRENT flips: the
   leftover hard-links generation n's files, generation n must restore,
   and the next checkpoint must replace the leftover without harming
   what it shared. *)
let test_crash_before_flip () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let events =
    [ Batch (List.init 8 (fun i -> (2 * i, (2 * i) + 1))); Drain;
      Batch [ (1, 2) ]; Drain ]
  in
  let t, _ = run_durable ~checkpoint_every:1 ~threads:1 dir fx events in
  let gen = Durable.generation t in
  let want = observe (Durable.session t) (Durable.output_lanes t) in
  ignore (Durable.finish t);
  let tables = Array.of_list (Program.schemas fx.f_program) in
  let schema_hash = Codec.schema_hash tables in
  let prev = Snapshot.read_manifest ~dir ~gen ~expect_hash:schema_hash in
  let extra = edge_tuple fx (40, 41) in
  ignore
    (Snapshot.write_delta ~dir ~prev ~schema_hash
       ~manifest_of:(fun ~runs ->
         { prev with Snapshot.m_gen = gen + 1; m_runs = runs })
       ~outputs:[ "path 40 41" ]
       ~runs:[ (fx.f_edge, fun f -> f extra) ]);
  Wal.close
    (Wal.create
       (Filename.concat dir (Printf.sprintf "wal-%d.log" (gen + 1)))
       ~schema_hash ~policy:Wal.Never);
  let d = restore_equal ~what:"unflipped generation" dir (config_of 2) want in
  Alcotest.(check int) "restored generation n" gen (Durable.generation d);
  Durable.feed d [ edge_tuple fx (2, 3) ];
  ignore (Durable.drain d);
  Durable.checkpoint d;
  let want = observe (Durable.session d) (Durable.output_lanes d) in
  ignore (Durable.finish d);
  ignore
    (Durable.finish
       (restore_equal ~what:"after replacing the leftover" dir (config_of 1)
          want))

(* Windowed stores evict, so an append log cannot describe them: the
   session checkpoints in full every time, and a restore holds exactly
   the window the live store held. *)
let test_windowed_full_only () =
  let p = Program.create () in
  let reading =
    Program.table p "Reading"
      ~columns:Schema.[ int_col "time"; int_col "value" ]
      ~orderby:Schema.[ Lit "Int"; Seq "time" ]
      ()
  in
  let seen =
    Program.table p "Seen" ~columns:Schema.[ int_col "time" ]
      ~orderby:Schema.[ Lit "Int"; Seq "time"; Lit "Seen" ]
      ()
  in
  Program.rule p "see" ~trigger:reading
    ~puts:[ Spec.put "Seen" ~ts:[ Spec.bind "time" (Spec.Field "time") ] ]
    (fun ctx r -> ctx.Rule.put (Tuple.make seen [| Tuple.get r 0 |]));
  let config =
    {
      (config_of 1) with
      Config.stores =
        [ ("Reading", Store.Custom (Store.windowed ~field:"time" ~width:2 Store.tree)) ];
    }
  in
  let dir = fresh_dir () in
  let frozen = Program.freeze p in
  let d, _ = Durable.open_ ~checkpoint_every:1 ~fsync:Wal.Never ~dir frozen config in
  for time = 0 to 9 do
    Durable.feed d [ Tuple.make reading [| v_int time; v_int (10 * time) |] ];
    ignore (Durable.drain d)
  done;
  Alcotest.(check int) "no delta checkpoints" 0
    (counter d "persist.checkpoints_delta");
  Alcotest.(check int) "every checkpoint full" 10
    (counter d "persist.checkpoints_full");
  let contents session schema =
    let acc = ref [] in
    (Engine.session_gamma session schema).Store.iter (fun t ->
        acc := Tuple.show t :: !acc);
    List.sort compare !acc
  in
  let live = contents (Durable.session d) reading in
  Alcotest.(check int) "the live window holds two readings" 2
    (List.length live);
  let digest = Engine.gamma_digest (Durable.session d) in
  ignore (Durable.finish d);
  let d2, _ = Durable.open_ ~dir frozen config in
  Alcotest.(check (list string)) "no evicted reading comes back" live
    (contents (Durable.session d2) reading);
  Alcotest.(check int) "the plain table keeps every tuple" 10
    (List.length (contents (Durable.session d2) seen));
  Alcotest.(check string) "gamma digest" digest
    (Engine.gamma_digest (Durable.session d2));
  ignore (Durable.finish d2)

(* A directory written by the full-rewrite-only format (no run files),
   committed as a fixture: it restores, replays its WAL suffix, and a
   delta checkpoint can layer on top of its base. *)
let test_restores_pre_delta_format () =
  let dir = fresh_dir () in
  Unix.rmdir dir;
  copy_dir (Filename.concat "fixtures" "snapshot-v1") dir;
  let fx = closure_fixture () in
  let frozen = Program.freeze fx.f_program in
  let oracle = Engine.start frozen (config_of 1) in
  let oracle_out = Fingerprint.create () in
  let feed edges = Engine.feed oracle (List.map (edge_tuple fx) edges) in
  let drain () =
    List.iter (Fingerprint.mix_string oracle_out) (Engine.drain oracle)
  in
  feed [ (0, 1); (1, 2); (20, 21); (22, 23); (24, 25); (26, 27) ];
  drain ();
  feed [ (2, 3) ];
  drain ();
  feed [ (3, 4) ];
  drain ();
  feed [ (5, 6) ];
  let d, status = Durable.open_ ~dir frozen (config_of 2) in
  (match status with
  | Durable.Restored r ->
      Alcotest.(check int) "from generation 1" 1 r.Durable.r_gen;
      Alcotest.(check int) "one trailing feed pending" 1 r.Durable.r_pending
  | Durable.Fresh -> Alcotest.fail "expected a restore");
  drain ();
  ignore (Durable.drain d);
  let want = observe oracle (Fingerprint.lanes oracle_out) in
  Alcotest.(check bool) "restored = uninterrupted" true
    (observe (Durable.session d) (Durable.output_lanes d) = want);
  Durable.checkpoint d;
  Alcotest.(check int) "a delta over the old base" 1
    (counter d "persist.checkpoints_delta");
  ignore (Durable.finish d);
  ignore
    (Durable.finish
       (restore_equal ~what:"delta over v1 base" dir (config_of 1) want))

(* The checkpoint lanes count what each generation wrote. *)
let test_checkpoint_counters () =
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let events =
    [ Batch (List.init 8 (fun i -> (2 * i, (2 * i) + 1))); Drain;
      Batch [ (30, 31) ]; Drain; Batch [ (32, 33) ]; Drain ]
  in
  let t, _ = run_durable ~threads:1 dir fx events in
  Alcotest.(check int) "no checkpoint yet" 0 (counter t "persist.checkpoints_full");
  Durable.checkpoint t;
  (* 8 Edge + 8 Path + 2 * (1 Edge + 1 Path) *)
  Alcotest.(check int) "gen 0 -> 1 is full" 1 (counter t "persist.checkpoints_full");
  Alcotest.(check int) "full writes all of Gamma" 20
    (counter t "persist.checkpoint_tuples_written");
  Alcotest.(check int) "no runs on a new base" 0
    (counter t "persist.snapshot_runs");
  Durable.feed t [ edge_tuple fx (34, 35) ];
  ignore (Durable.drain t);
  Durable.checkpoint t;
  Alcotest.(check int) "then a delta" 1 (counter t "persist.checkpoints_delta");
  Alcotest.(check int) "the delta writes only what was added" 22
    (counter t "persist.checkpoint_tuples_written");
  (* Edge run, Path run, output run *)
  Alcotest.(check int) "three run files" 3 (counter t "persist.snapshot_runs");
  Durable.checkpoint t;
  Alcotest.(check int) "an idle checkpoint is an empty delta" 2
    (counter t "persist.checkpoints_delta");
  Alcotest.(check int) "runs carry over" 3 (counter t "persist.snapshot_runs");
  ignore (Durable.finish t)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "persist",
      [
        Alcotest.test_case "crc32 vectors" `Quick test_crc32;
        Alcotest.test_case "codec round-trip + corruption" `Quick
          test_codec_roundtrip;
        Alcotest.test_case "schema hash" `Quick test_schema_hash;
        Alcotest.test_case "wal round-trip" `Quick test_wal_roundtrip;
        Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
        Alcotest.test_case "wal bit flip = corrupt" `Quick
          test_wal_bitflip_is_corrupt;
        Alcotest.test_case "wal every-ms group commit" `Quick
          test_wal_every_ms_group_commit;
        Alcotest.test_case "durable every-ms counters" `Quick
          test_durable_every_ms_lanes;
        Alcotest.test_case "restart replays the log" `Quick
          test_durable_restart_clean;
        Alcotest.test_case "checkpoint + restore" `Quick
          test_durable_checkpoint_and_restore;
        Alcotest.test_case "checkpoint requires quiescence" `Quick
          test_checkpoint_requires_quiescence;
        Alcotest.test_case "corrupt snapshot refused" `Quick
          test_corrupt_snapshot_detected;
        Alcotest.test_case "schema change refused" `Quick
          test_schema_change_detected;
        Alcotest.test_case "incremental checkpoints restore, threads=1"
          `Quick (test_incremental_checkpoints 1);
        Alcotest.test_case "incremental checkpoints restore, threads=2"
          `Quick (test_incremental_checkpoints 2);
        Alcotest.test_case "incremental checkpoints restore, threads=4"
          `Quick (test_incremental_checkpoints 4);
        Alcotest.test_case
          "incremental checkpoints restore, -noDelta Path, threads=4" `Quick
          (test_incremental_checkpoints ~no_delta:[ "Path" ] 4);
        Alcotest.test_case "bit flip in a delta run refused" `Quick
          test_delta_run_bitflip;
        Alcotest.test_case "crash before the CURRENT flip" `Quick
          test_crash_before_flip;
        Alcotest.test_case "windowed store checkpoints in full" `Quick
          test_windowed_full_only;
        Alcotest.test_case "pre-delta snapshot format restores" `Quick
          test_restores_pre_delta_format;
        Alcotest.test_case "checkpoint counters" `Quick
          test_checkpoint_counters;
      ]
      @ qsuite
          [
            prop_crash_recovery;
            prop_bitflip_recovery;
            prop_checkpoint_then_crash;
          ] );
  ]
