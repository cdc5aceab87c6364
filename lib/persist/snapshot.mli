(** Snapshot checkpoints: one directory per generation holding a
    CRC-guarded text [MANIFEST], a base of one binary segment per
    stored table plus the output lines it covered, and the run files
    that delta generations layered on top of that base.

    A checkpoint is written complete and fsynced {e before} the
    [CURRENT] pointer flips to it, so a crash at any point leaves either
    the old generation or the new one fully intact — never a half
    state.  The manifest records the database fingerprint at checkpoint
    time; restore rebuilds the stores from the segments and refuses to
    proceed unless the rebuilt database digests to the same value. *)

exception Snapshot_error of string

type run = {
  run_gen : int;  (** the generation that wrote it *)
  run_table : string option;
      (** [Some table]: tuples added to it; [None]: output lines *)
  run_count : int;  (** tuples or lines *)
}

type manifest = {
  m_gen : int;
  m_schema_hash : int;
  m_step_no : int;
  m_steps : int;
  m_processed : int;
  m_outputs_count : int;
  m_seq_lanes : int * int;
  m_out_lanes : int * int;
  m_gamma_digest : string;  (** hex fingerprint of every stored tuple *)
  m_wal : string;  (** the log file this snapshot pairs with *)
  m_segments : (string * int) list;  (** base: table name, tuple count *)
  m_runs : run list;  (** delta runs layered on the base, oldest first *)
}

val dir_name : int -> string
(** ["snap-<gen>"]. *)

val base_records : manifest -> int
(** Tuples and output lines in the base. *)

val run_records : manifest -> int
(** Tuples and output lines in the delta runs. *)

val write :
  dir:string ->
  gen:int ->
  schema_hash:int ->
  manifest_of:(segments:(string * int) list -> manifest) ->
  outputs:string list ->
  segments:(Jstar_core.Schema.t * ((Jstar_core.Tuple.t -> unit) -> unit)) list ->
  manifest
(** Write [dir/snap-<gen>] from scratch as a new base (any leftover from
    an earlier crashed attempt is unlinked first).  [segments] pairs
    each stored table with its iterator; [manifest_of] receives the
    per-table tuple counts once the segments are on disk.  Everything,
    including the snapshot directory entry, is fsynced before
    returning the manifest written. *)

val write_delta :
  dir:string ->
  prev:manifest ->
  schema_hash:int ->
  manifest_of:(runs:run list -> manifest) ->
  outputs:string list ->
  runs:(Jstar_core.Schema.t * ((Jstar_core.Tuple.t -> unit) -> unit)) list ->
  manifest
(** Write [dir/snap-<prev.m_gen + 1>] as generation [prev] plus what
    changed since: every file [prev] lists is hard-linked in (copied
    where links are unsupported), then one run file per entry of [runs]
    and one output run for [outputs] (omitted when empty) are added.
    [manifest_of] receives [prev]'s runs followed by the new ones.
    Nothing of [prev] is modified; fsyncs as {!write}. *)

val read_manifest : dir:string -> gen:int -> expect_hash:int -> manifest
(** Parse and CRC-check [MANIFEST]; validates the schema hash.
    @raise Snapshot_error *)

val load :
  dir:string ->
  gen:int ->
  manifest:manifest ->
  tables:Jstar_core.Schema.t array ->
  (Jstar_core.Tuple.t -> unit) ->
  string list
(** Stream every base and run tuple through the callback (CRC-checking
    each record) and return the output lines, oldest first.  Counts are
    verified against the manifest.  @raise Snapshot_error *)

val remove : dir:string -> gen:int -> unit
(** Best-effort recursive delete of a superseded generation.  Unlinks
    names only: files a later generation shares by hard link survive. *)

val link_or_copy : string -> string -> unit
(** [link_or_copy src dst]: hard-link an immutable snapshot file, or
    copy (and fsync) it on filesystems without link support. *)
