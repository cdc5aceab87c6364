(* jstar-serve (PR 10): the wire protocol round-trips every frame and
   rejects every mangled one without crashing; the server end to end —
   garbage bytes get a clean Err frame, admission control refuses
   excess sessions and connections, backpressure engages at the feed
   quota, idle sessions are evicted and recover on reopen, and
   branch → feed → merge lands on exactly the digests of a
   single-session oracle at 1/2/4 engine threads. *)

open Jstar_core
module Serve = Jstar_serve
module P = Jstar_serve.Protocol

let frozen = Serve.Demo.sensor_program ()
let tables = frozen.Program.tables
let schema_hash = Jstar_persist.Codec.schema_hash tables

let tmp_counter = ref 0

let fresh_root () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "jstar-serve-%d-%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_server ?(max_sessions = 16) ?(max_connections = 16)
    ?(feed_quota = 4096) ?(idle_timeout = 0.0) ?(engine = Config.default)
    ?(root = fresh_root ()) f =
  let server =
    Serve.Server.start
      {
        (Serve.Server.default_config ~root) with
        Serve.Server.max_sessions;
        max_connections;
        feed_quota;
        idle_timeout;
        fsync = Jstar_persist.Wal.Never;
        engine;
      }
      frozen
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      rm_rf root)
    (fun () -> f server)

(* ------------------------------------------------------------------ *)
(* Frame round-trips (qcheck) *)

let tuple_gen =
  QCheck.Gen.(
    let* i = int_range 0 (Array.length tables - 1) in
    let schema = tables.(i) in
    let* vals =
      array_repeat (Schema.arity schema) (map (fun n -> Value.Int n) small_nat)
    in
    return (Tuple.make schema vals))

let watermark_gen =
  QCheck.Gen.(
    let* a = small_nat and* b = small_nat and* c = nat and* d = nat in
    let* e = nat and* f = nat in
    return
      {
        P.w_steps = a;
        w_outputs = b;
        w_seq_lanes = (c, d);
        w_out_lanes = (e, f);
      })

let client_frame_gen =
  QCheck.Gen.(
    oneof
      [
        (let* v = small_nat and* h = nat in
         return (P.Hello { version = v; schema_hash = h land 0xffffffff }));
        map (fun s -> P.Open s) string_small;
        (let* ts = list_size (int_range 0 6) tuple_gen in
         return (P.Feed ts));
        return P.Drain;
        map (fun s -> P.Branch s) string_small;
        map (fun s -> P.Merge s) string_small;
        return P.Digest;
        return P.Checkpoint;
        return P.Bye;
      ])

let server_frame_gen =
  QCheck.Gen.(
    oneof
      [
        (let* v = small_nat and* h = nat in
         return
           (P.Welcome
              {
                version = v;
                schema_hash = h land 0xffffffff;
                max_payload = P.max_payload;
              }));
        map (fun s -> P.Okay s) string_small;
        (let* a = small_nat and* b = small_nat in
         return (P.Fed { accepted = a; backlog = b }));
        (let* lines = list_size (int_range 0 5) string_small
         and* mark = watermark_gen in
         return (P.Drained { lines; mark }));
        (let* g = string_small and* o = small_nat in
         let* c = nat and* d = nat and* e = nat and* f = nat in
         return
           (P.Digests
              {
                d_gamma = g;
                d_outputs = o;
                d_seq_lanes = (c, d);
                d_out_lanes = (e, f);
              }));
        (let* pause = bool and* b = small_nat in
         return (P.Flow { pause; backlog = b }));
        (let* code = small_nat and* msg = string_small in
         return (P.Err { code; msg }));
      ])

let client_frame_eq a b =
  match (a, b) with
  | P.Feed xs, P.Feed ys ->
      List.length xs = List.length ys && List.for_all2 Tuple.equal xs ys
  | _ -> a = b

let encode_client frame =
  let b = Buffer.create 64 in
  P.write_client b frame;
  Buffer.to_bytes b

let encode_server frame =
  let b = Buffer.create 64 in
  P.write_server b frame;
  Buffer.to_bytes b

let roundtrip_client =
  QCheck.Test.make ~name:"client frames round-trip the wire" ~count:300
    (QCheck.make client_frame_gen) (fun frame ->
      let bytes = encode_client frame in
      let pos = ref 0 in
      match P.read_frame_bytes bytes pos with
      | `Incomplete -> false
      | `Frame (kind, payload) ->
          !pos = Bytes.length bytes
          && client_frame_eq frame (P.decode_client ~tables kind payload))

let roundtrip_server =
  QCheck.Test.make ~name:"server frames round-trip the wire" ~count:300
    (QCheck.make server_frame_gen) (fun frame ->
      let bytes = encode_server frame in
      let pos = ref 0 in
      match P.read_frame_bytes bytes pos with
      | `Incomplete -> false
      | `Frame (kind, payload) ->
          !pos = Bytes.length bytes && frame = P.decode_server kind payload)

(* Mangling never yields a valid frame: truncation reads as Incomplete
   (wait for more bytes), a flipped bit or an oversized length raises
   Frame_error — and nothing crashes. *)
let mangled_frames =
  QCheck.Test.make ~name:"mangled frames are rejected, never decoded"
    ~count:200 (QCheck.make client_frame_gen) (fun frame ->
      let bytes = encode_client frame in
      let n = Bytes.length bytes in
      (* every strict prefix: a valid wait-for-more, never a frame *)
      let prefixes_ok =
        List.for_all
          (fun k ->
            match P.read_frame_bytes (Bytes.sub bytes 0 k) (ref 0) with
            | `Incomplete -> true
            | `Frame _ -> false
            | exception P.Frame_error _ -> true)
          (List.init n Fun.id)
      in
      (* every single-byte corruption: error or starvation, never a
         frame that differs silently *)
      let flips_ok =
        List.for_all
          (fun k ->
            let m = Bytes.copy bytes in
            Bytes.set m k (Char.chr (Char.code (Bytes.get m k) lxor 0x40));
            match P.read_frame_bytes m (ref 0) with
            | `Incomplete -> true
            | `Frame _ -> false
            | exception P.Frame_error _ -> true)
          (List.init n Fun.id)
      in
      prefixes_ok && flips_ok)

let test_oversized_frame () =
  let b = Buffer.create 16 in
  Jstar_persist.Codec.put_u8 b 3;
  Jstar_persist.Codec.put_u32 b (P.max_payload + 1);
  Buffer.add_string b (String.make 16 'x');
  match P.read_frame_bytes (Buffer.to_bytes b) (ref 0) with
  | exception P.Frame_error _ -> ()
  | `Incomplete -> Alcotest.fail "oversized length accepted as incomplete"
  | `Frame _ -> Alcotest.fail "oversized frame decoded"

(* ------------------------------------------------------------------ *)
(* End-to-end: garbage, handshake, admission, flow, eviction *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_garbage_gets_err () =
  with_server (fun server ->
      let port = Serve.Server.port server in
      let fd = raw_connect port in
      let junk = Bytes.init 64 (fun i -> Char.chr (i * 37 mod 251)) in
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      let r = P.reader fd in
      (match P.read_frame r with
      | Some (kind, payload) -> (
          match P.decode_server kind payload with
          | P.Err { code; _ } ->
              Alcotest.(check int) "bad-frame code" P.err_bad_frame code
          | _ -> Alcotest.fail "expected Err for garbage bytes")
      | None -> Alcotest.fail "server closed without an Err frame");
      Unix.close fd;
      (* the server survived: a well-formed client still works *)
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "alive/check");
      ignore (Serve.Client.digest c);
      Serve.Client.close c)

let test_handshake_rejects_schema () =
  with_server (fun server ->
      let port = Serve.Server.port server in
      let fd = raw_connect port in
      P.send_client fd
        (P.Hello { version = P.version; schema_hash = schema_hash lxor 0xff });
      let r = P.reader fd in
      (match P.read_frame r with
      | Some (kind, payload) -> (
          match P.decode_server kind payload with
          | P.Err { code; _ } ->
              Alcotest.(check int) "handshake code" P.err_handshake code
          | _ -> Alcotest.fail "expected Err for schema mismatch")
      | None -> Alcotest.fail "no reply to bad Hello");
      Unix.close fd)

let test_admission_sessions () =
  with_server ~max_sessions:1 (fun server ->
      let port = Serve.Server.port server in
      let a = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session a "adm/a");
      let b = Serve.Client.connect ~port frozen in
      (match Serve.Client.open_session b "adm/b" with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "capacity code" P.err_capacity code
      | _ -> Alcotest.fail "second session admitted past max_sessions");
      (* the same name is attachable — it is not a new session *)
      ignore (Serve.Client.open_session b "adm/a");
      Serve.Client.close b;
      Serve.Client.close a)

let test_admission_connections () =
  with_server ~max_connections:1 (fun server ->
      let port = Serve.Server.port server in
      let a = Serve.Client.connect ~port frozen in
      (match Serve.Client.connect ~port frozen with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "capacity code" P.err_capacity code
      | b ->
          Serve.Client.close b;
          Alcotest.fail "second connection admitted past max_connections");
      Serve.Client.close a)

let test_flow_pause () =
  with_server ~feed_quota:8 (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "flow/main");
      (* 17 tuples > quota 8: the server must pause us at least once,
         then accept — the client absorbs the Flow exchange. *)
      ignore (Serve.Client.feed c (Serve.Demo.batch frozen ~sensors:16 ~t:0));
      ignore (Serve.Client.drain c);
      Alcotest.(check bool) "client saw a pause" true (Serve.Client.pauses c >= 1);
      Alcotest.(check bool)
        "server counted it" true
        (Serve.Server.flow_pauses server >= 1);
      Serve.Client.close c)

let test_idle_eviction_and_recovery () =
  with_server ~idle_timeout:0.2 (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "evict/me");
      for t = 0 to 9 do
        ignore (Serve.Client.feed c (Serve.Demo.batch frozen ~sensors:8 ~t))
      done;
      ignore (Serve.Client.drain c);
      let before = Serve.Client.digest c in
      Serve.Client.close c;
      Alcotest.(check int) "session live" 1 (Serve.Server.sessions_open server);
      (* the janitor runs on the acceptor's 1 s tick *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Serve.Server.sessions_open server > 0
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.1
      done;
      Alcotest.(check int) "session evicted" 0
        (Serve.Server.sessions_open server);
      (* reopening recovers the checkpointed state exactly *)
      let c = Serve.Client.connect ~port frozen in
      let status = Serve.Client.open_session c "evict/me" in
      Alcotest.(check bool)
        "reopen restores" true
        (String.length status >= 8 && String.sub status 0 8 = "restored");
      let after = Serve.Client.digest c in
      Serve.Client.close c;
      Alcotest.(check string)
        "digest survives eviction" before.P.d_gamma after.P.d_gamma;
      Alcotest.(check bool)
        "output lanes survive eviction" true
        (before.P.d_out_lanes = after.P.d_out_lanes))

(* ------------------------------------------------------------------ *)
(* Branch -> feed -> merge equals the single-session oracle *)

type fingerprint = { gamma : string; outputs : int; out_lanes : int * int }

let fingerprint_of (d : P.digest_info) =
  { gamma = d.P.d_gamma; outputs = d.d_outputs; out_lanes = d.d_out_lanes }

let fp =
  Alcotest.testable
    (fun ppf f ->
      Format.fprintf ppf "{gamma=%s; outputs=%d; lanes=(%x,%x)}" f.gamma
        f.outputs (fst f.out_lanes) (snd f.out_lanes))
    ( = )

let sensors = 8
let drain_every = 5

let oracle_fingerprint ~engine ~ticks =
  let dir = fresh_root () in
  let d, _ =
    Jstar_persist.Durable.open_ ~fsync:Jstar_persist.Wal.Never ~dir frozen
      engine
  in
  for t = 0 to ticks - 1 do
    Jstar_persist.Durable.feed d (Serve.Demo.batch frozen ~sensors ~t);
    if (t + 1) mod drain_every = 0 then
      ignore (Jstar_persist.Durable.drain d)
  done;
  ignore (Jstar_persist.Durable.drain d);
  let session = Jstar_persist.Durable.session d in
  let st = Engine.session_state ~with_outputs:false session in
  let fp =
    {
      gamma = Engine.gamma_digest session;
      outputs = st.Engine.ss_outputs_count;
      out_lanes = Jstar_persist.Durable.output_lanes d;
    }
  in
  ignore (Jstar_persist.Durable.finish d);
  rm_rf dir;
  fp

let feed_range c ~from ~ticks =
  for t = from to from + ticks - 1 do
    ignore (Serve.Client.feed c (Serve.Demo.batch frozen ~sensors ~t));
    if (t - from + 1) mod drain_every = 0 then ignore (Serve.Client.drain c)
  done;
  ignore (Serve.Client.drain c)

let branch_merge_vs_oracle threads () =
  let engine =
    { (if threads = 1 then Config.default else Config.parallel ~threads ()) with
      Config.digest = true }
  in
  let want = oracle_fingerprint ~engine ~ticks:40 in
  with_server ~engine (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "bm/main");
      feed_range c ~from:0 ~ticks:20;
      ignore (Serve.Client.branch c "bm/side");
      (* the branch diverges with the suffix *)
      let c2 = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c2 "bm/side");
      feed_range c2 ~from:20 ~ticks:20;
      let side = fingerprint_of (Serve.Client.digest c2) in
      Alcotest.check fp "branch alone = oracle" want side;
      Serve.Client.close c2;
      (* merging the divergence brings main to the same point *)
      ignore (Serve.Client.merge c ~from:"bm/side");
      let merged = fingerprint_of (Serve.Client.digest c) in
      Alcotest.check fp "merge = oracle" want merged;
      (* and the branch is unharmed *)
      let c3 = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c3 "bm/side");
      Alcotest.check fp "source intact after merge" want
        (fingerprint_of (Serve.Client.digest c3));
      Serve.Client.close c3;
      Serve.Client.close c)

(* A checkpoint empties the source's WAL, so its post-fork divergence
   window is gone: merging afterwards must be refused — never reported
   as success while silently replaying only the post-checkpoint rump. *)
let test_merge_refused_after_checkpoint () =
  with_server (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "ck/main");
      feed_range c ~from:0 ~ticks:10;
      ignore (Serve.Client.branch c "ck/side");
      let c2 = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c2 "ck/side");
      feed_range c2 ~from:10 ~ticks:10;
      Serve.Client.checkpoint c2;
      Serve.Client.close c2;
      (match Serve.Client.merge c ~from:"ck/side" with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "truncated window refused" P.err_merge code
      | _ -> Alcotest.fail "merged a checkpoint-truncated divergence window");
      Serve.Client.close c)

(* The one snapshot generation a session directory holds. *)
let snap_dir dir =
  match
    List.filter
      (fun f -> String.starts_with ~prefix:"snap-" f)
      (Array.to_list (Sys.readdir dir))
  with
  | [ g ] -> Filename.concat dir g
  | l -> Alcotest.failf "%s: expected one snapshot, found %d" dir (List.length l)

(* Branching a session whose snapshot is a base plus delta runs: the
   fork shares every file by hard link, and branch -> feed -> merge
   still lands on the single-session oracle. *)
let test_branch_after_delta_checkpoints () =
  let want = oracle_fingerprint ~engine:Config.default ~ticks:40 in
  let root = fresh_root () in
  with_server ~root (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "dc/main");
      feed_range c ~from:0 ~ticks:15;
      Serve.Client.checkpoint c;
      (* 5 ticks over a 15-tick base: a delta *)
      feed_range c ~from:15 ~ticks:5;
      Serve.Client.checkpoint c;
      feed_range c ~from:20 ~ticks:5;
      (* the fork checkpoints the diverged log first: another delta *)
      ignore (Serve.Client.branch c "dc/side");
      let main_snap = snap_dir (Filename.concat root "dc/main")
      and side_snap = snap_dir (Filename.concat root "dc/side") in
      let files = Sys.readdir main_snap in
      (* Tick, Reading, Alarm and output runs of two delta generations *)
      Alcotest.(check int) "runs of two delta generations" 8
        (List.length
           (List.filter
              (fun f ->
                String.starts_with ~prefix:"run-" f
                || String.starts_with ~prefix:"out-" f)
              (Array.to_list files)));
      Array.iter
        (fun f ->
          let ino d = (Unix.stat (Filename.concat d f)).Unix.st_ino in
          Alcotest.(check int) (f ^ " shared by hard link") (ino main_snap)
            (ino side_snap))
        files;
      let c2 = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c2 "dc/side");
      feed_range c2 ~from:25 ~ticks:15;
      Alcotest.check fp "branch alone = oracle" want
        (fingerprint_of (Serve.Client.digest c2));
      Serve.Client.close c2;
      ignore (Serve.Client.merge c ~from:"dc/side");
      Alcotest.check fp "merge = oracle" want
        (fingerprint_of (Serve.Client.digest c));
      Serve.Client.close c)

let test_merge_conflicts () =
  with_server (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "mc/main");
      (match Serve.Client.merge c ~from:"mc/main" with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "self-merge refused" P.err_merge code
      | _ -> Alcotest.fail "merged a session into itself");
      match Serve.Client.merge c ~from:"mc/ghost" with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "unknown source refused" P.err_no_session code;
          Serve.Client.close c
      | _ -> Alcotest.fail "merged from a session that does not exist")

let suite =
  [
    ( "serve.protocol",
      List.map QCheck_alcotest.to_alcotest
        [ roundtrip_client; roundtrip_server; mangled_frames ]
      @ [
          Alcotest.test_case "oversized frame rejected" `Quick
            test_oversized_frame;
        ] );
    ( "serve.server",
      [
        Alcotest.test_case "garbage gets a clean Err frame" `Quick
          test_garbage_gets_err;
        Alcotest.test_case "handshake rejects schema mismatch" `Quick
          test_handshake_rejects_schema;
        Alcotest.test_case "admission: max sessions" `Quick
          test_admission_sessions;
        Alcotest.test_case "admission: max connections" `Quick
          test_admission_connections;
        Alcotest.test_case "flow pause at the feed quota" `Quick
          test_flow_pause;
        Alcotest.test_case "idle eviction, then recovery" `Quick
          test_idle_eviction_and_recovery;
      ] );
    ( "serve.branch-merge",
      [
        Alcotest.test_case "branch+merge = oracle, threads=1" `Quick
          (branch_merge_vs_oracle 1);
        Alcotest.test_case "branch+merge = oracle, threads=2" `Quick
          (branch_merge_vs_oracle 2);
        Alcotest.test_case "branch+merge = oracle, threads=4" `Quick
          (branch_merge_vs_oracle 4);
        Alcotest.test_case "merge conflicts are refused" `Quick
          test_merge_conflicts;
        Alcotest.test_case "merge refused after source checkpoint" `Quick
          test_merge_refused_after_checkpoint;
        Alcotest.test_case "branch after delta checkpoints = oracle" `Quick
          test_branch_after_delta_checkpoints;
      ] );
  ]
