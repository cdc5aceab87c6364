(* serve-stream: the real jstar-serve binary at its shipped defaults,
   driven over loopback by a closed loop of two connections, one
   session each.

   Why: this is the end-to-end path (socket -> decode -> admission ->
   mailbox -> WAL -> Delta -> Gamma -> drain reply), and the only
   workload where snapshot writes, WAL appends and fsyncs show.  The
   program has one trivial rule, so the engine does almost nothing.

   Untraced run: set-up (spawn -> both sessions open, several times),
   the timed closed loop, then SIGKILL and restart on the same root
   until both sessions answer [restored] (several times), with the
   digests checked against an in-process Durable oracle and against
   the pre-kill digests.

   Traced run: the timed loop twice (untraced, then with spans around
   each client call) for [trace.overhead]; the traced schedule's own
   batches through the protocol codec; the same schedule replayed into
   an in-process Durable with the binary's settings (the persist
   layer, and the oracle), then through the engine alone. *)

open Jstar_core
module Serve = Jstar_serve
module Client = Serve.Client
module Durable = Jstar_persist.Durable
module Wal = Jstar_persist.Wal
module Tracer = Jstar_obs.Tracer

let why =
  "the served end-to-end path: socket, protocol, admission, mailbox, WAL, \
   snapshots and drain replies, over an almost empty engine"

(* The binary's defaults, left in place: the benchmark passes only
   --root and --port 0.  The in-process replay uses the same values. *)
let fsync = Wal.Every_ms 5
let checkpoint_every = 256
let sensors = 16
let drain_every = 10
let sessions = [| "bench/s0"; "bench/s1" |]
let setups = 11
let recoveries = 3

let frozen = Serve.Demo.sensor_program ()

let table name =
  List.find (fun s -> s.Schema.name = name) (Array.to_list frozen.Program.tables)

let tick = table "Tick"
let reading = table "Reading"

(* One sensor tick: a Tick plus one seeded Reading per sensor. *)
let batch ~seed ~session ~t =
  Tuple.make tick [| Value.Int t |]
  :: List.init sensors (fun sensor ->
         Tuple.make reading
           [|
             Value.Int t;
             Value.Int sensor;
             Value.Int (Gen.reading_value ~seed ~session ~t ~sensor);
           |])

let tuples_per_tick = sensors + 1
let total_tuples ticks = Array.length sessions * ticks * tuples_per_tick

(* -- the server process ------------------------------------------------- *)

type server = { pid : int; port : int; out : in_channel }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn [bin serve] on [root] and return once it is listening: the
   first line it prints carries the ephemeral port. *)
let spawn ~bin ~root =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--root"; root; "--port"; "0" |]
      devnull w Unix.stderr
  in
  live := pid :: !live;
  Unix.close w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr r in
  let line =
    match Unix.select [ r ] [] [] 60.0 with
    | [], _, _ -> failwith "jstar-serve did not start within 60 s"
    | _ -> ( try input_line out with End_of_file -> "")
  in
  match
    Scanf.sscanf_opt line "jstar-serve: listening on %s@:%d" (fun _ p -> p)
  with
  | Some port -> { pid; port; out }
  | None -> failwith ("jstar-serve failed to start: " ^ String.escaped line)

let kill srv =
  Unix.kill srv.pid Sys.sigkill;
  ignore (Unix.waitpid [] srv.pid);
  live := List.filter (( <> ) srv.pid) !live;
  close_in srv.out

(* Connect one client per session and open it; the status words must
   be [expect] ("fresh" or "restored"). *)
let open_sessions r ~port ~expect =
  Array.map
    (fun name ->
      let c = Client.connect ~port frozen in
      let status = Client.open_session c name in
      Report.check r
        (Printf.sprintf "open %s answered %S, expected %s" name status expect)
        (String.starts_with ~prefix:expect status);
      c)
    sessions

let close_all clients =
  Array.iter (fun c -> try Client.close c with _ -> ()) clients

(* Spawn -> both sessions answer [expect]. *)
let start r ~bin ~root ~expect =
  let t0 = Util.now_ns () in
  let srv = spawn ~bin ~root in
  let clients = open_sessions r ~port:srv.port ~expect in
  (srv, clients, Util.seconds_since t0)

(* -- the closed loop ------------------------------------------------------ *)

(* The schedule is fixed work, not a deadline: [ticks_per_second] ticks
   per session for each measured second, which runs for about that long
   on a 2-core box.  The served state at the kill is then the same on
   every commit, so recover_s, peak_rss_mb and the checkpoint-driven
   drain tail compare at one state size; a faster server just finishes
   sooner. *)
let ticks_per_second = 2500

let schedule_ticks seconds =
  max drain_every
    (int_of_float (seconds *. float_of_int ticks_per_second)
    / drain_every * drain_every)

type drive = {
  mutable last_ns : int;  (** when the final drain returned *)
  mutable drains_ms : float list;
  mutable feeds_ms : float list;  (** traced loop only *)
  mutable pauses : int;
  mutable digest : Serve.Protocol.digest_info option;
  mutable error : string option;
}

(* One connection's loop: feed a tick, drain every [drain_every] ticks,
   until [ticks] ticks are fed and covered by a drain watermark. *)
let drive ~tr ~kinds:(k_root, k_feed, k_drain) ~seed ~session ~ticks c =
  let d =
    {
      last_ns = 0; drains_ms = []; feeds_ms = []; pauses = 0; digest = None;
      error = None;
    }
  in
  let traced = Tracer.spans_on tr in
  (try
     Tracer.span tr k_root (fun () ->
         for t = 0 to ticks - 1 do
           let b = batch ~seed ~session ~t in
           let t0 = Util.now_ns () in
           ignore (Tracer.span tr k_feed (fun () -> Client.feed c b));
           if traced then
             d.feeds_ms <- Util.ms_of_ns (Util.now_ns () - t0) :: d.feeds_ms;
           if (t + 1) mod drain_every = 0 then begin
             let t0 = Util.now_ns () in
             ignore (Tracer.span tr k_drain (fun () -> Client.drain c));
             let t1 = Util.now_ns () in
             d.drains_ms <- Util.ms_of_ns (t1 - t0) :: d.drains_ms;
             d.last_ns <- t1
           end
         done);
     d.pauses <- Client.pauses c;
     d.digest <- Some (Client.digest c)
   with e -> d.error <- Some (Printexc.to_string e));
  d

(* Input tuples covered by drain watermarks per wall second. *)
let rate ~t0 ~ticks runs =
  let t_end = Array.fold_left (fun acc d -> max acc d.last_ns) t0 runs in
  float_of_int (total_tuples ticks) /. (float_of_int (t_end - t0) *. 1e-9)

(* Run the schedule on both connections, one domain each. *)
let closed_loop r ~tr ~seed ~ticks clients =
  let kinds =
    (Tracer.register_kind tr "bench.serve", Tracer.register_kind tr "serve.feed",
     Tracer.register_kind tr "serve.drain")
  in
  let t0 = Util.now_ns () in
  let runs =
    Array.mapi
      (fun session c ->
        Domain.spawn (fun () -> drive ~tr ~kinds ~seed ~session ~ticks c))
      clients
    |> Array.map Domain.join
  in
  Array.iteri
    (fun i d ->
      Report.attempted r (ticks + List.length d.drains_ms);
      match d.error with
      | Some e ->
          Report.failure r (Printf.sprintf "session %s: %s" sessions.(i) e);
          failwith "serve-stream: a session failed; no figures"
      | None -> ())
    runs;
  (runs, rate ~t0 ~ticks runs)

(* -- oracles and replays -------------------------------------------------- *)

let digest_of_durable d : Serve.Protocol.digest_info =
  let session = Durable.session d in
  let st = Engine.session_state ~with_outputs:false session in
  {
    Serve.Protocol.d_gamma = Engine.gamma_digest session;
    d_outputs = st.Engine.ss_outputs_count;
    d_seq_lanes = st.Engine.ss_seq_lanes;
    d_out_lanes = Durable.output_lanes d;
  }

(* Feed [ticks] ticks of [session]'s stream on the clients' rhythm
   (a drain every [drain_every] ticks; [ticks] is a multiple of it). *)
let replay ~seed ~session ~ticks ~feed ~drain =
  for t = 0 to ticks - 1 do
    feed (batch ~seed ~session ~t);
    if (t + 1) mod drain_every = 0 then drain ()
  done

let oracle_digest ~dir ~seed ~session ~ticks =
  let d, _ =
    Durable.open_ ~fsync:Wal.Never ~dir frozen Config.default
  in
  replay ~seed ~session ~ticks
    ~feed:(Durable.feed d)
    ~drain:(fun () -> ignore (Durable.drain d));
  let digest = digest_of_durable d in
  ignore (Durable.finish d);
  Util.rm_rf dir;
  digest

let check_digests r ~what runs digests =
  Array.iteri
    (fun i d ->
      Report.check r
        (Printf.sprintf "%s digest of %s" what sessions.(i))
        (d.digest = Some digests.(i)))
    runs

let drain_metrics r runs =
  let drains = Array.to_list runs |> List.concat_map (fun d -> d.drains_ms) in
  let n = List.length drains in
  let a = Stats.sorted drains in
  Report.set r "drain_p50_ms" (Stats.percentile a 50.0);
  match Stats.tail_percentile n with
  | Some p ->
      Report.set r "drain_tail_ms" (Stats.percentile a p);
      Report.meta r "drain_samples" (Report.int n);
      Report.meta r "drain_tail_percentile" (Report.num p)
  | None -> failwith (Printf.sprintf "only %d drains: no tail percentile" n)

let meta_common r ~bin ~ticks =
  Report.meta r "server" (Report.str bin);
  Report.meta r "fsync_policy" (Report.str "every-ms-5");
  Report.meta r "checkpoint_every_drains" (Report.int checkpoint_every);
  Report.meta r "engine_threads" (Report.int 1);
  Report.meta r "sessions" (Report.int (Array.length sessions));
  Report.meta r "sensors_per_tick" (Report.int sensors);
  Report.meta r "drain_every_ticks" (Report.int drain_every);
  Report.meta r "ticks_per_session" (Report.int ticks);
  Report.meta r "input_tuples" (Report.int (total_tuples ticks))

(* -- untraced run --------------------------------------------------------- *)

let run_untraced r ~bin ~seed ~seconds ~scratch =
  let tr = Spans.create ~traced:false in
  let root = Filename.concat scratch "serve" in
  let setup_times =
    List.init setups (fun i ->
        let root = Printf.sprintf "%s-setup%d" root i in
        let srv, clients, t = start r ~bin ~root ~expect:"fresh" in
        close_all clients;
        kill srv;
        Util.rm_rf root;
        t)
  in
  Report.set r "setup_s" (Stats.median setup_times);
  let srv, clients, _ = start r ~bin ~root ~expect:"fresh" in
  let ticks = schedule_ticks seconds in
  let runs, rate = closed_loop r ~tr ~seed ~ticks clients in
  Report.set r "tuples_per_s" rate;
  drain_metrics r runs;
  Report.set r "peak_rss_mb" (Util.peak_rss_mb (string_of_int srv.pid));
  close_all clients;
  kill srv;
  let before = Array.map (fun d -> Option.get d.digest) runs in
  let recover_times =
    List.init recoveries (fun _ ->
        let srv, clients, t = start r ~bin ~root ~expect:"restored" in
        let after = Array.map Client.digest clients in
        Array.iteri
          (fun i d ->
            Report.check r
              (Printf.sprintf "recovered digest of %s" sessions.(i))
              (d = before.(i)))
          after;
        close_all clients;
        kill srv;
        t)
  in
  Report.set r "recover_s" (Stats.median recover_times);
  let oracle =
    Array.mapi
      (fun session _ ->
        oracle_digest
          ~dir:(Filename.concat scratch (Printf.sprintf "oracle%d" session))
          ~seed ~session ~ticks)
      runs
  in
  check_digests r ~what:"served vs oracle" runs oracle;
  meta_common r ~bin ~ticks

(* -- traced run ----------------------------------------------------------- *)

(* The traced schedule's own batches through the codec: encode each
   Feed frame, then read the frames back and decode them. *)
let protocol_costs r ~tr ~seed ~ticks =
  let k_root = Tracer.register_kind tr "bench.protocol" in
  let k_enc = Tracer.register_kind tr "protocol.encode" in
  let k_dec = Tracer.register_kind tr "protocol.decode" in
  let batches =
    List.concat
      (List.init (Array.length sessions) (fun session ->
           List.init ticks (fun t -> batch ~seed ~session ~t)))
  in
  let tuples = List.length batches * tuples_per_tick in
  let tables = frozen.Program.tables in
  Tracer.span tr k_root (fun () ->
      let buf = Buffer.create (1 lsl 20) in
      let (), enc =
        Util.timed (fun () ->
            Tracer.span tr k_enc (fun () ->
                List.iter
                  (fun b -> Serve.Protocol.write_client buf (Serve.Protocol.Feed b))
                  batches))
      in
      let bytes = Buffer.to_bytes buf in
      let decoded, dec =
        Util.timed (fun () ->
            Tracer.span tr k_dec (fun () ->
                let pos = ref 0 and n = ref 0 in
                let rec loop () =
                  match Serve.Protocol.read_frame_bytes bytes pos with
                  | `Frame (kind, payload) -> (
                      match Serve.Protocol.decode_client ~tables kind payload with
                      | Serve.Protocol.Feed ts ->
                          n := !n + List.length ts;
                          loop ()
                      | _ -> failwith "protocol: decoded a non-Feed frame")
                  | `Incomplete -> ()
                in
                loop ();
                !n))
      in
      Report.check r "protocol decode returns every encoded tuple"
        (decoded = tuples);
      let per = float_of_int (max 1 tuples) in
      Report.set r "protocol.encode_ns_per_tuple" (enc *. 1e9 /. per);
      Report.set r "protocol.decode_ns_per_tuple" (dec *. 1e9 /. per);
      Report.set r "protocol.bytes_per_tuple"
        (float_of_int (Bytes.length bytes) /. per))

(* The schedule into an in-process Durable with the binary's settings.
   A drain that advanced the generation took a checkpoint. *)
let persist_replay r ~tr ~seed ~scratch ~ticks runs =
  let k_root = Tracer.register_kind tr "bench.persist" in
  let k_feed = Tracer.register_kind tr "persist.feed" in
  let k_drain = Tracer.register_kind tr "persist.drain" in
  let k_ckpt = Tracer.register_kind tr "persist.checkpoint" in
  let feed_ns = ref 0 and drains = ref [] and ckpts = ref [] in
  let wal_bytes = ref 0 and fsyncs = ref 0 and coalesced = ref 0 in
  let snapshot_bytes = ref 0 and replayed = ref 0 in
  let digests = ref [] and wall = ref 0.0 in
  Array.iteri
          (fun session _ ->
            let dir =
              Filename.concat scratch (Printf.sprintf "persist%d" session)
            in
            let dur, _ =
              Durable.open_ ~checkpoint_every ~fsync ~dir frozen
                Config.default
            in
            (* WAL growth is read at drains only, to keep the replay's
               own bookkeeping out of the feed path. *)
            let wal_size () = (Unix.stat (Durable.wal_path dur)).Unix.st_size in
            let last = ref (wal_size ()) in
            let (), s =
              Util.timed @@ fun () ->
              Tracer.span tr k_root @@ fun () ->
                replay ~seed ~session ~ticks
                  ~feed:(fun b ->
                    let t0 = Tracer.start tr and c0 = Util.now_ns () in
                    Durable.feed dur b;
                    feed_ns := !feed_ns + (Util.now_ns () - c0);
                    Tracer.stop tr k_feed t0)
                  ~drain:(fun () ->
                    let gen = Durable.generation dur and size = wal_size () in
                    wal_bytes := !wal_bytes + (size - !last);
                    let t0 = Tracer.start tr and c0 = Util.now_ns () in
                    ignore (Durable.drain dur);
                    let ms = Util.ms_of_ns (Util.now_ns () - c0) in
                    if Durable.generation dur <> gen then begin
                      Tracer.stop tr k_ckpt t0;
                      ckpts := ms :: !ckpts
                    end
                    else begin
                      Tracer.stop tr k_drain t0;
                      drains := ms :: !drains
                    end;
                    (* a checkpoint starts a fresh log: the watermark it
                       sealed went with the old one *)
                    let after = wal_size () in
                    if Durable.generation dur = gen then
                      wal_bytes := !wal_bytes + (after - size);
                    last := after)
            in
            wall := !wall +. s;
            digests := digest_of_durable dur :: !digests;
            fsyncs := !fsyncs + Durable.wal_fsyncs dur;
            coalesced := !coalesced + Durable.wal_coalesced_syncs dur;
            ignore (Durable.finish dur);
            snapshot_bytes :=
              !snapshot_bytes
              + Array.fold_left
                  (fun acc f ->
                    if String.length f > 5 && String.sub f 0 5 = "snap-" then
                      acc + Util.du (Filename.concat dir f)
                    else acc)
                  0 (Sys.readdir dir);
            let d2, status =
              Durable.open_ ~checkpoint_every ~fsync ~dir frozen Config.default
            in
            (match status with
            | Durable.Restored info ->
                replayed := !replayed + info.Durable.r_feeds + info.Durable.r_drains
            | Durable.Fresh -> ());
            Report.check r "persist replay: reopen restores the session"
              (status <> Durable.Fresh);
            ignore (Durable.finish d2);
            Util.rm_rf dir)
    sessions;
  let wall = !wall in
  check_digests r ~what:"served vs in-process Durable" runs
    (Array.of_list (List.rev !digests));
  let tuples = total_tuples ticks in
  let ckpt_s = List.fold_left ( +. ) 0.0 !ckpts /. 1e3 in
  let per = float_of_int (max 1 tuples) in
  Report.set r "persist.tuples_per_s" (float_of_int tuples /. wall);
  Report.set r "persist.feed_us_per_tuple" (float_of_int !feed_ns *. 1e-3 /. per);
  if !drains <> [] then Report.set r "persist.drain_ms" (Stats.median !drains);
  if !ckpts <> [] then Report.set r "persist.checkpoint_ms" (Stats.median !ckpts);
  Report.set r "persist.checkpoints" (float_of_int (List.length !ckpts));
  Report.set r "persist.checkpoint_share" (ckpt_s /. wall);
  Report.set r "persist.replayed_records" (float_of_int !replayed);
  Report.set r "wal.fsyncs" (float_of_int !fsyncs);
  Report.set r "wal.coalesced_syncs" (float_of_int !coalesced);
  Report.set r "wal.bytes_per_tuple" (float_of_int !wal_bytes /. per);
  Report.set r "snapshot.bytes" (float_of_int !snapshot_bytes);
  float_of_int tuples /. wall

(* The schedule through Engine.feed/drain alone: the floor under
   serving. *)
let engine_replay r ~tr ~seed ~ticks =
  let k_root = Tracer.register_kind tr "bench.engine" in
  let k_feed = Tracer.register_kind tr "core.feed" in
  let k_drain = Tracer.register_kind tr "core.drain" in
  let stats = Engine_stats.create () in
  let (), wall =
    Util.timed (fun () ->
        Array.iteri
          (fun session _ ->
            let s = Engine.start frozen Config.default in
            Tracer.span tr k_root (fun () ->
                replay ~seed ~session ~ticks
                  ~feed:(fun b -> Tracer.span tr k_feed (fun () -> Engine.feed s b))
                  ~drain:(fun () ->
                    ignore (Tracer.span tr k_drain (fun () -> Engine.drain s))));
            Engine_stats.add stats (Engine.finish s))
          sessions)
  in
  Engine_stats.job stats;
  Report.set r "engine.alone_tuples_per_s"
    (float_of_int (total_tuples ticks) /. wall);
  Engine_stats.set r stats

let run_traced r ~bin ~seed ~seconds ~scratch =
  let ticks = schedule_ticks (seconds /. 2.0) in
  (* the same loop untraced, on its own server, for trace.overhead *)
  let plain = Spans.create ~traced:false in
  let root0 = Filename.concat scratch "serve-plain" in
  let srv, clients, _ = start r ~bin ~root:root0 ~expect:"fresh" in
  let _, plain_rate = closed_loop r ~tr:plain ~seed ~ticks clients in
  close_all clients;
  kill srv;
  Util.rm_rf root0;
  let tr = Spans.create ~traced:true in
  let root = Filename.concat scratch "serve" in
  let srv, clients, _ = start r ~bin ~root ~expect:"fresh" in
  let runs, rate = closed_loop r ~tr ~seed ~ticks clients in
  close_all clients;
  kill srv;
  let feeds = Array.to_list runs |> List.concat_map (fun d -> d.feeds_ms) in
  let a = Stats.sorted feeds in
  Report.set r "serve.feed_p50_ms" (Stats.percentile a 50.0);
  Report.set r "serve.feed_p99_ms" (Stats.percentile a 99.0);
  Report.set r "serve.flow_pauses"
    (float_of_int (Array.fold_left (fun acc d -> acc + d.pauses) 0 runs));
  Report.set r "trace.overhead" (rate /. plain_rate);
  (* one recovery, for the output check *)
  let before = Array.map (fun d -> Option.get d.digest) runs in
  let srv, clients, _ = start r ~bin ~root ~expect:"restored" in
  Array.iteri
    (fun i c ->
      Report.check r
        (Printf.sprintf "recovered digest of %s" sessions.(i))
        (Client.digest c = before.(i)))
    clients;
  close_all clients;
  kill srv;
  Util.rm_rf root;
  protocol_costs r ~tr ~seed ~ticks;
  let standalone = persist_replay r ~tr ~seed ~scratch ~ticks runs in
  Report.set r "serve.transport_share" (1.0 -. (rate /. standalone));
  engine_replay r ~tr ~seed ~ticks;
  Spans.finish r tr ~workload:"serve-stream";
  meta_common r ~bin ~ticks

let run r ~bin ~seed ~seconds ~trace =
  let scratch = Util.scratch_dir () in
  Report.meta r "why" (Report.str why);
  if trace then run_traced r ~bin ~seed ~seconds ~scratch
  else run_untraced r ~bin ~seed ~seconds ~scratch
