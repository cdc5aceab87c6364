(** Runtime configuration — the JStar compiler flags as runtime options,
    so strategy and data-structure choices never touch program text. *)

type data_structures =
  | Auto  (** sequential structures iff [threads = 1] *)
  | Sequential_ds  (** the TreeMap/TreeSet family; single-threaded only *)
  | Concurrent_ds  (** skip list / sharded hash family *)

type grain =
  | Auto_grain
      (** adaptive: [max 1 (n / (4 * workers))] per leaf — the "chunked
          leaves" strategy *)
  | Fixed of int  (** fixed leaf size; [Fixed 1] is one task per tuple *)

type advisor = {
  adv_warmup : int;
      (** total prefix queries (across tables) before the advisor
          reviews scan patterns *)
  adv_min_queries : int;
      (** scans of one (table, prefix length) needed to justify
          promoting an index *)
  adv_min_size : int;  (** tables smaller than this are never indexed *)
  adv_demote_windows : int;
      (** consecutive cold review windows (an index serving fewer than
          [adv_min_queries/8] of the window's scans counts as cold)
          before a promoted index is dropped again; 0 = never demote *)
}

val advisor_default : advisor
(** warmup 512, min queries 128, min size 256, demote after 4 cold
    windows — conservative enough that short runs never pay a
    backfill. *)

type t = {
  threads : int;  (** fork/join pool size ([--threads=N]); 1 = caller only *)
  data_structures : data_structures;
  no_delta : string list;
      (** [-noDelta T]: put T straight into Gamma, firing its rules
          immediately (§5.1) *)
  no_gamma : string list;
      (** [-noGamma T]: never store T (trigger-only tables, §5.1) *)
  stores : (string * Store.kind_spec) list;
      (** per-table Gamma store overrides *)
  grain : grain;  (** fork/join leaf granularity at engine call sites *)
  put_batching : bool;
      (** buffer parallel-phase puts per domain, flushing them through
          [Delta.insert_batch] / [Store.insert_batch] at the phase
          barriers that already define class visibility *)
  batch_fire : bool;
      (** vectorized Phase B: fire each minimal class as batched
          relational-algebra operations — group by (rule, table), sort
          each chunk by the rule's declared join key ({!Spec.read}
          [?prefix]), probe Gamma through a batched hash-join cursor,
          and flush puts from per-task scratch arenas straight through
          [Delta.insert_batch].  Firing order within a class is
          unconstrained by the law of causality, so determinism digests,
          lineage and outputs are bit-identical to the per-tuple path *)
  indexes : (string * int list) list;
      (** declared secondary indexes (table name, prefix lengths),
          built empty at engine start and maintained at the Phase-A
          barrier — see {!Store.indexed} *)
  agg_cache : bool;
      (** memoized monoid aggregates: [Query.count] and
          [Query.memo_reduce] answer from barrier-maintained partials
          instead of re-scanning Gamma *)
  advisor : advisor option;
      (** adaptive store advisor: watches per-prefix-length query
          histograms and promotes hot scan patterns to secondary
          indexes mid-run, reporting through metrics and the
          [advisor-promote] span kind *)
  task_per_rule : bool;
      (** one task per (tuple, rule) pair instead of per tuple (§5.2) *)
  runtime_causality_check : bool;
      (** assert at every put that the tuple is not in the past *)
  max_steps : int option;  (** abort runaway programs *)
  print_directly : bool;  (** bypass deterministic output collection *)
  tracing : Jstar_obs.Level.t;
      (** [Off]: zero-cost; [Counters]: metrics registry only; [Spans]:
          also record per-domain span rings for Chrome-trace export *)
  trace_suppress : string list;
      (** builtin span kinds, by name (e.g. ["rule-fire"]), never
          recorded even at [Spans] — the per-kind mask that keeps
          step/extract spans while dropping per-task events on
          rule-fire-heavy runs *)
  trace_sample : int;
      (** record only every [N]-th span of each unmasked kind at
          [Spans] level (per domain, per kind; 1 = record everything) —
          finer-grained than [trace_suppress] when some per-task signal
          should survive on rule-fire-heavy runs *)
  provenance : bool;
      (** capture tuple lineage: one candidate derivation record per
          put into per-domain arenas, merged at step barriers into a
          deterministic derivation per tuple (read by [Jstar_prov.Explain]
          and the [--explain] CLI flag) *)
  audit_causality : bool;
      (** runtime causality-law auditor: validate every firing
          dynamically — positive queries at timestamps [<= T],
          negative/aggregate strictly [< T], puts [>= T], where [T] is
          the trigger's timestamp — catching unsound [Custom] stores
          and hand-written rules the static checker cannot see.
          Violations raise [Engine.Causality_violation] *)
  digest : bool;
      (** compute order-independent 128-bit digests of the final Gamma
          contents (per table and overall) and of the per-step class
          sequence, exposed in [Engine.result.digest] and the metrics
          snapshot — CI can assert equality across thread counts *)
  profile : bool;
      (** continuous profiler ({!Jstar_obs.Profiler}): self-time
          brackets per rule firing plus a per-step barrier fold of
          table / scheduler / GC deltas into exponentially decayed
          aggregates, served by [/profile] and the [/health] heartbeat.
          Timing lanes are non-deterministic by nature; deterministic
          counters, outputs and digests are unaffected (asserted by
          [test_ops]) *)
  step_hook : (int -> Jstar_obs.Metrics.t -> unit) option;
      (** called on the driving domain at the end of every step with
          the step number and live metrics registry — powers the CLI's
          [--metrics-every] periodic flush so crashed runs still leave
          a trail.  Runs inside the barrier: keep it cheap *)
}

val default : t
(** Sequential: one thread, automatic (sequential) data structures, no
    optimisations. *)

val sequential : t
(** Alias of {!default} — the [-sequential] compiler flag. *)

val parallel : ?threads:int -> unit -> t
(** Parallel defaults ([threads] defaults to 4): put batching, batched
    firing, the aggregate cache, the store advisor and the continuous
    profiler on.  {!default} keeps them off so ablation baselines
    remain reachable.  The profiler's price: over 5 default-scale runs
    of [bench hotpath] (2 threads, 2 vCPUs, rev ec488ca)
    [profiler_overhead_vs_all_on] had median −4.3% and ranged from
    −7.6% to +2.9%, so its cost is below that box's run-to-run spread
    (EXPERIMENTS.md "Hot-path ablation"). *)

val effective_mode : t -> Delta.mode
(** Which structure family the configuration resolves to. *)

exception Invalid of string

val validate : t -> unit
(** @raise Invalid for nonsensical combinations (0 threads, sequential
    structures with a multi-threaded pool, grain < 1, empty or
    non-positive index length lists, advisor thresholds out of range,
    unknown kind names in [trace_suppress], [trace_sample < 1]). *)

val resolve_grain : t -> workers:int -> n:int -> int
(** The fork/join leaf size for an [n]-iteration loop on [workers]
    workers under this configuration's {!field-grain}. *)
