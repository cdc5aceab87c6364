(* Snapshot checkpoints.

   Layout: dir/snap-<gen>/
     MANIFEST            CRC-guarded text: counters, digests, file list
     seg-<table>.dat     the base: framed tuples, one record per tuple
     outputs.dat         the base's output lines, print order
     run-<g>-<table>.dat tuples added by delta generation g
     out-<g>.dat         output lines printed since generation g-1

   A full checkpoint writes only a base.  A delta checkpoint hard-links
   every file of the previous generation and adds the run files of
   what changed since; Gamma only grows, so base + runs is the whole
   database.  Record framing matches the WAL ([u32 len][payload][u32
   crc]) minus the kind byte; file headers carry magic, version and the
   program's schema hash. *)

open Jstar_core

exception Snapshot_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Snapshot_error s)) fmt

let seg_magic = "JSTARSEG"
let out_magic = "JSTAROUT"
let version = 1

type run = { run_gen : int; run_table : string option; run_count : int }

type manifest = {
  m_gen : int;
  m_schema_hash : int;
  m_step_no : int;
  m_steps : int;
  m_processed : int;
  m_outputs_count : int;
  m_seq_lanes : int * int;
  m_out_lanes : int * int;
  m_gamma_digest : string;
  m_wal : string;
  m_segments : (string * int) list;
  m_runs : run list;
}

let dir_name gen = Printf.sprintf "snap-%d" gen
let seg_name table = Printf.sprintf "seg-%s.dat" table
let outputs_name = "outputs.dat"

let run_name r =
  match r.run_table with
  | Some table -> Printf.sprintf "run-%d-%s.dat" r.run_gen table
  | None -> Printf.sprintf "out-%d.dat" r.run_gen

let data_files m =
  (outputs_name :: List.map (fun (t, _) -> seg_name t) m.m_segments)
  @ List.map run_name m.m_runs

let run_records m = List.fold_left (fun acc r -> acc + r.run_count) 0 m.m_runs

let base_records m =
  List.fold_left (fun acc (_, n) -> acc + n) m.m_outputs_count m.m_segments
  - List.fold_left
      (fun acc r -> if Option.is_none r.run_table then acc + r.run_count else acc)
      0 m.m_runs

(* -- io helpers ------------------------------------------------------ *)

let write_all fd b off len =
  let off = ref off and stop = off + len in
  while !off < stop do
    off := !off + Unix.write fd b !off (stop - !off)
  done

let write_file path content =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (Bytes.unsafe_of_string content) 0 (String.length content);
      Unix.fsync fd)

let read_whole path =
  match open_in_bin path with
  | exception Sys_error m -> fail "%s" m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

let fsync_path path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let remove ~dir ~gen = rm_rf (Filename.concat dir (dir_name gen))

let link_or_copy src dst =
  (* Snapshot files are immutable once written, so a hard link is a
     zero-copy share; fall back to a byte copy on filesystems without
     link support. *)
  try Unix.link src dst
  with Unix.Unix_error ((Unix.EXDEV | Unix.EPERM | Unix.ENOSYS), _, _) ->
    let b = Bytes.create 65536 in
    let ifd = Unix.openfile src [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close ifd)
      (fun () ->
        let ofd =
          Unix.openfile dst [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        Fun.protect
          ~finally:(fun () -> Unix.close ofd)
          (fun () ->
            let rec loop () =
              let n = Unix.read ifd b 0 (Bytes.length b) in
              if n > 0 then begin
                write_all ofd b 0 n;
                loop ()
              end
            in
            loop ();
            Unix.fsync ofd))

(* -- framed record files --------------------------------------------- *)

(* Every snapshot file streams through one fixed buffer per checkpoint:
   records are framed in place ([u32 len][payload][u32 crc]), the CRC
   computed over the buffer bytes, and the buffer flushed to the file
   whenever the next record would not fit.  A record larger than the
   whole buffer gets a one-off allocation. *)
let buffer_size = 65536

type writer = { buf : Bytes.t; fd : Unix.file_descr; mutable pos : int }

let flush w =
  write_all w.fd w.buf 0 w.pos;
  w.pos <- 0

let add_record w size fill =
  let need = size + 8 in
  if w.pos + need > Bytes.length w.buf then flush w;
  let dst, off =
    if need <= Bytes.length w.buf then (w.buf, w.pos) else (Bytes.create need, 0)
  in
  Codec.set_u32 dst off size;
  fill dst (off + 4);
  Codec.set_u32 dst (off + 4 + size) (Crc32.bytes dst off (4 + size));
  if dst == w.buf then w.pos <- w.pos + need else write_all w.fd dst 0 need

(* Write one file through [buf]: header (magic, version, schema hash,
   [arg]), then the records [body] adds; flushed and fsynced before
   close. *)
let with_file buf path file_magic ~schema_hash ~arg body =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let w = { buf; fd; pos = 0 } in
      let m = String.length file_magic in
      Bytes.blit_string file_magic 0 w.buf 0 m;
      Codec.set_u32 w.buf m version;
      Codec.set_u32 w.buf (m + 4) schema_hash;
      Codec.set_u32 w.buf (m + 8) arg;
      w.pos <- m + 12;
      let r = body w in
      flush w;
      Unix.fsync fd;
      r)

let write_tuples buf path ~schema_hash schema iter =
  with_file buf path seg_magic ~schema_hash ~arg:schema.Schema.id (fun w ->
      let count = ref 0 in
      iter (fun t ->
          add_record w (Codec.tuple_size t) (fun dst off ->
              ignore (Codec.encode_tuple_into dst off t));
          incr count);
      !count)

let write_lines buf path ~schema_hash lines =
  with_file buf path out_magic ~schema_hash ~arg:(List.length lines) (fun w ->
      List.iter
        (fun line ->
          let n = String.length line in
          add_record w (4 + n) (fun dst off ->
              Codec.set_u32 dst off n;
              Bytes.blit_string line 0 dst (off + 4) n))
        lines)

(* Visit each record's payload in place as [(src, offset, length)]. *)
let iter_records ~what src pos f =
  let len = Bytes.length src in
  while !pos < len do
    let start = !pos in
    let plen = Codec.get_u32 src pos in
    if start + 4 + plen + 4 > len then fail "%s: truncated record" what;
    let crc_stored =
      let cp = ref (start + 4 + plen) in
      Codec.get_u32 src cp
    in
    if Crc32.bytes src start (4 + plen) <> crc_stored then
      fail "%s: record CRC mismatch" what;
    pos := start + 4 + plen + 4;
    f src (start + 4) plen
  done

let check_header ~what file_magic ~expect_hash src pos =
  if Bytes.length src < String.length file_magic + 12 then
    fail "%s: missing header" what;
  if Bytes.sub_string src 0 (String.length file_magic) <> file_magic then
    fail "%s: bad magic" what;
  pos := String.length file_magic;
  let v = Codec.get_u32 src pos in
  if v <> version then fail "%s: unsupported version %d" what v;
  let h = Codec.get_u32 src pos in
  if h <> expect_hash land 0xffffffff then fail "%s: schema hash mismatch" what;
  Codec.get_u32 src pos

(* -- manifest -------------------------------------------------------- *)

let manifest_to_string m =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "jstar-snapshot 1";
  line "gen %d" m.m_gen;
  line "schema %d" m.m_schema_hash;
  line "step_no %d" m.m_step_no;
  line "steps %d" m.m_steps;
  line "processed %d" m.m_processed;
  line "outputs %d" m.m_outputs_count;
  line "seq %d %d" (fst m.m_seq_lanes) (snd m.m_seq_lanes);
  line "out %d %d" (fst m.m_out_lanes) (snd m.m_out_lanes);
  line "gamma %s" m.m_gamma_digest;
  line "wal %s" m.m_wal;
  List.iter (fun (t, n) -> line "segment %s %d" t n) m.m_segments;
  List.iter
    (fun r ->
      match r.run_table with
      | Some t -> line "run %d %d %s" r.run_gen r.run_count t
      | None -> line "outrun %d %d" r.run_gen r.run_count)
    m.m_runs;
  let body = Buffer.contents b in
  body ^ Printf.sprintf "crc %08x\n" (Crc32.string body)

let manifest_of_string ~what s =
  (* split the trailing crc line off and verify it first *)
  let body, crc_line =
    match String.rindex_opt (String.trim s) '\n' with
    | None -> fail "%s: malformed manifest" what
    | Some i ->
        let t = String.trim s in
        (String.sub t 0 (i + 1), String.sub t (i + 1) (String.length t - i - 1))
  in
  (match Scanf.sscanf_opt crc_line "crc %x" (fun c -> c) with
  | Some c when c = Crc32.string body -> ()
  | Some _ -> fail "%s: manifest CRC mismatch" what
  | None -> fail "%s: manifest missing CRC line" what);
  let kv = Hashtbl.create 16 in
  let segments = ref [] and runs = ref [] in
  String.split_on_char '\n' body
  |> List.iter (fun l ->
         match String.index_opt l ' ' with
         | None -> ()
         | Some i ->
             let k = String.sub l 0 i
             and v = String.sub l (i + 1) (String.length l - i - 1) in
             if k = "segment" then (
               match String.rindex_opt v ' ' with
               | Some j ->
                   let t = String.sub v 0 j
                   and n = String.sub v (j + 1) (String.length v - j - 1) in
                   segments := (t, int_of_string n) :: !segments
               | None -> fail "%s: malformed segment line" what)
             else if k = "run" then
               match
                 Scanf.sscanf_opt v "%d %d %[^\n]" (fun g n t ->
                     { run_gen = g; run_table = Some t; run_count = n })
               with
               | Some r -> runs := r :: !runs
               | None -> fail "%s: malformed run line" what
             else if k = "outrun" then
               match
                 Scanf.sscanf_opt v "%d %d" (fun g n ->
                     { run_gen = g; run_table = None; run_count = n })
               with
               | Some r -> runs := r :: !runs
               | None -> fail "%s: malformed outrun line" what
             else Hashtbl.replace kv k v);
  let get k =
    match Hashtbl.find_opt kv k with
    | Some v -> v
    | None -> fail "%s: manifest missing %s" what k
  in
  let geti k = try int_of_string (get k) with _ -> fail "%s: bad %s" what k in
  let lanes k =
    match Scanf.sscanf_opt (get k) "%d %d" (fun a b -> (a, b)) with
    | Some l -> l
    | None -> fail "%s: bad %s lanes" what k
  in
  {
    m_gen = geti "gen";
    m_schema_hash = geti "schema";
    m_step_no = geti "step_no";
    m_steps = geti "steps";
    m_processed = geti "processed";
    m_outputs_count = geti "outputs";
    m_seq_lanes = lanes "seq";
    m_out_lanes = lanes "out";
    m_gamma_digest = get "gamma";
    m_wal = get "wal";
    m_segments = List.rev !segments;
    m_runs = List.rev !runs;
  }

(* -- write ----------------------------------------------------------- *)

(* A generation directory is written from scratch (a leftover from an
   earlier crashed attempt is unlinked first — names only, so files it
   shared with the live generation by hard link survive), filled by
   [fill], then sealed by its manifest and both directory fsyncs. *)
let write_generation ~dir ~gen fill =
  let snap = Filename.concat dir (dir_name gen) in
  rm_rf snap;
  (try Unix.mkdir snap 0o755
   with Unix.Unix_error (e, _, _) ->
     fail "mkdir %s: %s" snap (Unix.error_message e));
  let m = fill (Bytes.create buffer_size) snap in
  write_file (Filename.concat snap "MANIFEST") (manifest_to_string m);
  fsync_path snap;
  fsync_path dir;
  m

let write ~dir ~gen ~schema_hash ~manifest_of ~outputs ~segments =
  write_generation ~dir ~gen (fun buf snap ->
      let counts =
        List.map
          (fun (schema, iter) ->
            let name = schema.Schema.name in
            ( name,
              write_tuples buf
                (Filename.concat snap (seg_name name))
                ~schema_hash schema iter ))
          segments
      in
      write_lines buf (Filename.concat snap outputs_name) ~schema_hash outputs;
      manifest_of ~segments:counts)

let write_delta ~dir ~prev ~schema_hash ~manifest_of ~outputs ~runs =
  let gen = prev.m_gen + 1 in
  let src = Filename.concat dir (dir_name prev.m_gen) in
  write_generation ~dir ~gen (fun buf snap ->
      List.iter
        (fun f -> link_or_copy (Filename.concat src f) (Filename.concat snap f))
        (data_files prev);
      let added =
        List.map
          (fun (schema, iter) ->
            let r = { run_gen = gen; run_table = Some schema.Schema.name; run_count = 0 } in
            let n =
              write_tuples buf (Filename.concat snap (run_name r)) ~schema_hash
                schema iter
            in
            { r with run_count = n })
          runs
      in
      let added =
        match outputs with
        | [] -> added
        | lines ->
            let r =
              { run_gen = gen; run_table = None; run_count = List.length lines }
            in
            write_lines buf (Filename.concat snap (run_name r)) ~schema_hash lines;
            added @ [ r ]
      in
      manifest_of ~runs:(prev.m_runs @ added))

(* -- read ------------------------------------------------------------ *)

let read_manifest ~dir ~gen ~expect_hash =
  let path = Filename.concat dir (Filename.concat (dir_name gen) "MANIFEST") in
  let m = manifest_of_string ~what:path (read_whole path) in
  if m.m_schema_hash <> expect_hash land 0xffffffff then
    fail "%s: schema hash mismatch (program changed?)" path;
  if m.m_gen <> gen then fail "%s: generation mismatch" path;
  m

let load ~dir ~gen ~manifest ~tables f =
  let snap = Filename.concat dir (dir_name gen) in
  let expect_hash = manifest.m_schema_hash in
  let load_tuples name expected =
    let path = Filename.concat snap name in
    let src = Bytes.unsafe_of_string (read_whole path) in
    let pos = ref 0 in
    let _table_id = check_header ~what:path seg_magic ~expect_hash src pos in
    let n = ref 0 in
    iter_records ~what:path src pos (fun src off len ->
        let p = ref off in
        (match Codec.decode_tuple ~tables src p with
        | t when !p = off + len -> f t
        | _ -> fail "%s: record length mismatch" path
        | exception Codec.Codec_error m -> fail "%s: %s" path m);
        incr n);
    if !n <> expected then
      fail "%s: expected %d tuples, found %d" path expected !n
  in
  (* lines come back newest first, prepended onto [acc] *)
  let load_lines name acc =
    let path = Filename.concat snap name in
    let src = Bytes.unsafe_of_string (read_whole path) in
    let pos = ref 0 in
    let count = check_header ~what:path out_magic ~expect_hash src pos in
    let lines = ref acc and n = ref 0 in
    iter_records ~what:path src pos (fun src off _ ->
        let p = ref off in
        match Codec.get_string src p with
        | s ->
            lines := s :: !lines;
            incr n
        | exception Codec.Codec_error m -> fail "%s: %s" path m);
    if !n <> count then fail "%s: output count mismatch" path;
    (!lines, count)
  in
  List.iter (fun (t, expected) -> load_tuples (seg_name t) expected) manifest.m_segments;
  let lines, total =
    List.fold_left
      (fun (lines, total) r ->
        match r.run_table with
        | Some _ ->
            load_tuples (run_name r) r.run_count;
            (lines, total)
        | None ->
            let lines, n = load_lines (run_name r) lines in
            if n <> r.run_count then
              fail "%s: output run disagrees with manifest" (run_name r);
            (lines, total + n))
      (load_lines outputs_name []) manifest.m_runs
  in
  if total <> manifest.m_outputs_count then
    fail "%s: outputs disagree with manifest" snap;
  List.rev lines
