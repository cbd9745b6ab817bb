(** Observability for the checking pipeline.

    One {!t} instruments a whole session: the tracer counts every entry
    it records, the runtime stamps each section's trip through dispatch,
    worker checking and in-order merge, and the engine reports what it
    examined. Everything is exposed as immutable {!snapshot} values that
    can be pretty-printed, serialized to TSV (one machine-readable
    line per datum) or to JSON lines.

    The disabled path is deliberately free: {!disabled} is a singleton
    whose [on] field is an immutable [false], every hook is guarded by
    callers with a single [if Obs.enabled obs] load-and-branch, and
    [Sink.observed] returns the {e unwrapped} sink when given
    {!disabled}, so the per-event hot path is byte-for-byte the
    uninstrumented one.

    Timestamps come from [Unix.gettimeofday] (the repo has no monotonic
    clock outside the bench harness); span stamps are clamped so that
    sent <= start <= done <= merged even if the wall clock steps
    backwards, which keeps the end-to-end >= check-latency invariant
    machine-checkable. *)

type t

val disabled : t
(** The shared no-op instance; every hook returns immediately. *)

val create : ?max_spans:int -> unit -> t
(** A live collector. At most [max_spans] (default 1024) of the most
    recent completed section spans are retained. *)

val enabled : t -> bool

val now_ns : unit -> int
(** Wall-clock nanoseconds since the Unix epoch. *)

(** {1 Hooks}

    All hooks are safe to call from any domain. [seq] is the runtime's
    dispatch sequence number; [worker] identifies the checking domain
    (the synchronous [workers:0] path uses worker 0). Calling any hook
    on {!disabled} is a no-op. *)

val event_traced : t -> unit
(** One trace entry recorded by an instrumentation sink or emitter. *)

val events_traced_add : t -> int -> unit
(** Bulk version of {!event_traced} for replay paths. *)

val section_dropped : t -> unit
(** [send_trace] found an empty section: nothing was dispatched. *)

val section_sent : t -> seq:int -> entries:int -> unit
(** Section [seq] ([entries] trace entries) handed to the runtime. *)

val queue_depth : t -> int -> unit
(** Sections dispatched but not yet merged, sampled at dispatch; the
    high-water mark is kept. *)

val check_started : t -> seq:int -> worker:int -> unit
val check_finished : t -> seq:int -> unit
(** Bracket the engine pass over section [seq] on a worker. On finish
    the per-worker section count and busy time and the check-latency
    histogram are updated. *)

val section_merged : t -> seq:int -> unit
(** Section [seq] merged into the aggregate in dispatch order; closes
    its span and feeds the end-to-end latency histogram. *)

val reorder_depth : t -> int -> unit
(** Occupancy of the reorder buffer (reports parked waiting for an
    earlier section), sampled after each parking; high-water kept. *)

val engine_counts : t -> entries:int -> ops:int -> checkers:int -> diags:int -> unit
(** Totals from one engine pass over a section. *)

val batch_drained : t -> sections:int -> unit
(** A worker drained its queue in one lock acquisition and got this many
    sections; the count and the per-batch high-water mark are kept. *)

val arena_alloc : t -> reused:bool -> unit
(** A packed trace arena was handed out — [reused] when it came from the
    freelist instead of a fresh allocation. *)

(** {2 Auto-repair hooks}

    Fired by the repair pass ({!Pmtest_repair.Repair}). *)

val repair_trace : t -> edits:int -> rounds:int -> ns:int -> unit
(** One trace ran to a repair fixed point: [edits] applied over
    [rounds] analysis passes in [ns] nanoseconds. *)

val repair_verify_ns : t -> int -> unit
(** Time spent verifying repair plans (engine and oracle
    differentials). *)

(** {2 Service hooks}

    Fired by the [pmtestd] daemon ({!Pmtest_server.Server}): session
    lifecycle, wire frames in either direction, corrupt frames, sections
    shed under backpressure, and per-session check latency. *)

val session_opened : t -> unit
(** A client session was accepted; the concurrent-session high-water
    mark is updated. *)

val session_closed : t -> unit

val frame_received : t -> bytes:int -> unit
(** One wire frame read from a client ([bytes] = header + payload). *)

val frame_sent : t -> bytes:int -> unit

val frame_corrupt : t -> unit
(** A frame failed CRC / version / decode validation and was rejected
    without killing the worker pool. *)

val section_shed : t -> unit
(** A decoded section was dropped by the [Shed] backpressure policy. *)

val inflight_depth : t -> int -> unit
(** Sections accepted from clients but not yet checked, sampled per
    arrival; high-water kept. *)

val serve_section_ns : t -> int -> unit
(** Receipt-to-checked latency of one client section (feeds the
    per-session latency histogram). *)

val shard_session : t -> shard:int -> unit
(** A session was admitted onto (pinned to) the given daemon shard. *)

val shard_section : t -> shard:int -> unit
(** One section dispatched by the given shard's runtime (shard 0 for
    every in-process runtime). *)

(** {2 Farm hooks}

    Fired by the pmfarm coordinator ({!Pmtest_farm.Farm}): campaign job
    accounting, worker lifecycle, offers (with their retry/steal
    provenance), reassignment after worker loss, finding dedup and
    nondeterminism flags. *)

val farm_campaign : t -> jobs:int -> unit
(** A campaign with this many jobs was opened (or resumed). *)

val farm_worker_joined : t -> unit
val farm_worker_lost : t -> unit
(** A worker handshake completed / a worker link died or timed out. *)

val farm_offer : t -> retry:bool -> steal:bool -> unit
(** One [Job_offer] sent; [retry] when the job was previously assigned
    to a lost worker, [steal] when it duplicates a slow in-flight
    attempt onto an idle worker. *)

val farm_job_done : t -> unit
val farm_reassigned : t -> jobs:int -> unit
(** Jobs returned to the pending set from a lost worker. *)

val farm_finding : t -> dup:bool -> unit
(** A reproducer reached the triage store ([dup] when digest-deduped). *)

val farm_nondet : t -> unit
(** Two attempts of one job produced different result digests. *)

val farm_heartbeat : t -> unit
val farm_checkpoint : t -> unit
(** One worker [Checkpoint] heartbeat frame / one on-disk campaign
    checkpoint write. *)

(** {1 Snapshots} *)

type hist = {
  total : int;  (** Samples recorded. *)
  sum_ns : int;
  min_ns : int;  (** 0 when [total = 0]. *)
  max_ns : int;
  buckets : (int * int) list;
      (** [(i, count)] with count > 0, ascending [i]: durations in
          [\[2{^i}, 2{^i+1}) ns] (bucket 0 also holds 0 and 1 ns). *)
}

type worker_stat = { id : int; sections : int; busy_ns : int }

type shard_stat = { shard : int; shard_sessions : int; shard_sections : int }
(** Sessions admitted onto / sections dispatched by one daemon shard. *)

type serve_stat = {
  sessions_opened : int;
  sessions_closed : int;
  sessions_hwm : int;  (** Peak concurrent sessions. *)
  frames_in : int;
  frames_out : int;
  frame_bytes_in : int;
  frame_bytes_out : int;
  frames_corrupt : int;  (** Rejected (CRC / version / decode). *)
  sections_shed : int;  (** Dropped by the [Shed] policy. *)
  inflight_hwm : int;  (** Peak accepted-but-unchecked sections. *)
}

type farm_stat = {
  farm_workers : int;  (** Workers that completed a handshake. *)
  farm_workers_lost : int;  (** Links dropped or heartbeat-timed-out. *)
  farm_jobs : int;  (** Jobs across the campaign(s). *)
  farm_jobs_done : int;
  farm_offers : int;  (** [Job_offer] frames sent. *)
  farm_retries : int;  (** Offers of a previously-lost job. *)
  farm_steals : int;  (** Duplicate offers onto idle workers. *)
  farm_reassignments : int;  (** Jobs moved off dead workers. *)
  farm_findings : int;  (** Distinct reproducers in the triage store. *)
  farm_dup_findings : int;  (** Digest-deduped duplicates. *)
  farm_nondet : int;  (** Attempt-digest mismatches flagged. *)
  farm_heartbeats : int;
  farm_checkpoints : int;  (** On-disk checkpoint writes. *)
}

type span = {
  seq : int;
  worker : int;
  entries : int;
  sent_ns : int;  (** Relative to collector creation. *)
  start_ns : int;
  done_ns : int;
  merged_ns : int;
}

type snapshot = {
  elapsed_ns : int;  (** Since collector creation. *)
  events_traced : int;
  sections_sent : int;
  sections_checked : int;
  sections_merged : int;
  sections_dropped : int;
  queue_hwm : int;
  reorder_hwm : int;
  entries_checked : int;
  ops_checked : int;
  checkers_run : int;
  diagnostics : int;
  batches : int;  (** Worker queue drains (batch hand-offs). *)
  batch_sections_max : int;  (** Largest single batch. *)
  arenas_allocated : int;  (** Packed arenas handed out. *)
  arenas_reused : int;  (** ... of which came from the freelist. *)
  repair_traces : int;  (** Traces run to a repair fixed point. *)
  repair_edits : int;  (** Edits applied across those traces. *)
  repair_rounds : int;  (** Analysis passes across those traces. *)
  repair_ns : int;  (** Time spent analysing and applying. *)
  repair_verify_ns : int;  (** Time spent verifying repair plans. *)
  serve : serve_stat;  (** Daemon-side counters (all zero in-process). *)
  farm : farm_stat;  (** pmfarm coordinator counters (all zero elsewhere). *)
  workers : worker_stat list;  (** Ascending worker id. *)
  shards : shard_stat list;  (** Ascending shard index; empty in-process. *)
  check_hist : hist;  (** Engine pass time per section. *)
  e2e_hist : hist;  (** Dispatch-to-merge time per section. *)
  serve_hist : hist;  (** Per-session receipt-to-checked latency. *)
  spans : span list;  (** Oldest retained first. *)
}

val snapshot : t -> snapshot
(** A consistent copy of the current state; {!disabled} yields all
    zeros. Counters are monotonic from one snapshot to the next. *)

(** {1 Sinks} *)

val pp : Format.formatter -> snapshot -> unit
(** Console profile: counters, per-worker utilization, histogram bars. *)

val to_tsv : snapshot -> string
(** Machine-readable: one [tag\tfield...] line per datum. *)

val to_jsonl : snapshot -> string
(** JSON-lines: one object per line ([counters], [worker], [hist],
    [span]), integer fields only. *)
