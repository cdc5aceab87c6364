(** Durable sessions: an {!Jstar_core.Engine} session wrapped in a
    write-ahead log and snapshot checkpoints, so a crashed process can
    restart exactly where it left off.

    The contract, in terms of the engine's determinism promises: after
    a crash at {e any} point, [open_] rebuilds a session whose Gamma
    fingerprint, class-sequence digest and output-stream digest equal
    those of an uninterrupted run over the durable prefix of the input
    — and it proves it, by checking the rebuilt database against the
    snapshot manifest and each replayed drain against its watermark.

    Directory layout:
    {v dir/CURRENT     "gen <n>" — atomically flipped pointer
       dir/wal-<n>.log  feeds + drain watermarks since snapshot <n>
       dir/snap-<n>/    MANIFEST, a base (seg-<table>.dat, outputs.dat)
                        and delta runs (run-<g>-<table>.dat, out-<g>.dat) v}
    Generation 0 has no snapshot directory (empty database + log).

    Checkpoints are incremental: the session turns on the engine's
    append log ({!Jstar_core.Engine.log_appends}), and a checkpoint
    writes only the tuples and output lines added since the previous
    one, hard-linking the rest, until the runs would outgrow the base;
    then it rewrites everything as a new base.  Sessions with a custom
    store always rewrite in full.  The metrics registry carries
    [persist.checkpoints_full], [persist.checkpoints_delta],
    [persist.checkpoint_tuples_written] and the [persist.snapshot_runs]
    gauge beside the [wal.*] lanes. *)

exception Recovery_error of string
(** A digest, schema or manifest check failed during restore — the
    on-disk state cannot reproduce the session it claims to hold. *)

type t

type restore_info = {
  r_gen : int;  (** snapshot generation recovery started from *)
  r_feeds : int;  (** WAL feed records replayed *)
  r_drains : int;  (** WAL watermark records replayed (and verified) *)
  r_pending : int;  (** tuples re-fed but not yet drained at the crash *)
  r_wal_tail : Wal.tail;  (** how the recovered log ended *)
}

type status = Fresh | Restored of restore_info

val open_ :
  ?checkpoint_every:int ->
  ?fsync:Wal.fsync_policy ->
  dir:string ->
  Jstar_core.Program.frozen ->
  Jstar_core.Config.t ->
  t * status
(** Open (creating [dir] if needed) or recover a durable session.
    [checkpoint_every] (default 0 = only explicit {!checkpoint} calls)
    takes a checkpoint automatically after every N drains.  [fsync]
    (default [Always]) sets the WAL durability policy.
    @raise Recovery_error when existing state fails validation. *)

val feed : t -> Jstar_core.Tuple.t list -> unit
(** Append the batch to the WAL (durably, per the fsync policy), then
    feed it to the engine. *)

val drain : t -> string list
(** Drain the engine, fold the fresh output lines into the running
    output-stream digest, and append + commit a watermark record.  May
    trigger an automatic checkpoint. *)

val checkpoint : t -> unit
(** Write snapshot generation [n+1] — a delta over generation [n] when
    the delta runs would stay smaller than the base, else a full
    rewrite — start a fresh log, flip [CURRENT], retire generation [n]
    (unlinking its names; files [n+1] links survive).  Requires
    quiescence.
    @raise Invalid_argument when tuples are still pending. *)

val finish : t -> Jstar_core.Engine.result
(** Sync and close the log, then finish the engine session. *)

val session : t -> Jstar_core.Engine.session
(** The underlying engine session (for gamma inspection in tests). *)

val generation : t -> int

val fork_base : t -> int option
(** [Some g] when this session was created by {!fork} at generation
    [g] (recorded in an on-disk [FORK] marker).  Its WAL holds the
    complete post-fork divergence exactly while {!generation} still
    equals [g]; any checkpoint since the fork empties the log and
    advances the generation, so a consumer of the divergence window
    (serve's merge) must refuse once they differ. *)

val dir : t -> string
(** The session's durable directory. *)

val wal_path : t -> string
(** Current log file — exposed for the fault-injection harness. *)

val wal_records : t -> int
(** Complete records (feeds + watermarks) written to the current
    generation's log — 0 right after a checkpoint or fork. *)

val fork : t -> dir:string -> int
(** Branch this session's durable state into [dir] without copying
    segments: checkpoint first if the log has diverged from the
    snapshot (always at generation 0), then hard-link the snapshot
    generation's files into [dir], give the branch a fresh empty WAL,
    record the shared generation in a [FORK] provenance marker (see
    {!fork_base}), and flip its [CURRENT].  The branch is opened like
    any other durable directory with {!open_}, whose recovery
    re-verifies the linked snapshot's fingerprint.  Returns the shared
    generation.
    Requires quiescence, like {!checkpoint}.
    @raise Invalid_argument when tuples are pending or [dir] already
    holds a session. *)

val output_lanes : t -> int * int
(** Running output-stream digest lanes (matches the last watermark). *)

val wal_lag : t -> Wal.lag
(** Current WAL durability exposure (records not yet fsynced, seconds
    since the last fsync) — the heartbeat's [wal] block. *)

val wal_fsyncs : t -> int
(** fsync calls across all generations of this session's log. *)

val wal_coalesced_syncs : t -> int
(** Commits whose records rode a later group-commit sync instead of
    paying their own fsync — exported as [wal.coalesced_syncs]. *)

val fsync_policy_name : t -> string
(** ["always"], ["every-<n>"], ["every-ms-<n>"] or ["never"] — for
    monitoring output. *)
