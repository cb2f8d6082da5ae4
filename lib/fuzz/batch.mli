(** Fleet-scale batch driver: stream a JSONL manifest of kernel specs
    through the melding pipeline and the simulator, backed by the
    content-addressed {!Darm_harness.Result_cache}.

    This is the ROADMAP's "compile-and-simulate at fleet scale" axis:
    [darm_opt batch] turns the one-kernel CLI into a throughput engine
    that melds, checks and simulates tens of thousands of kernels —
    registry benchmarks and/or {!Gen}-generated fuzz subjects — within
    a fixed wall-clock budget, with bounded in-flight memory and
    deterministic output.

    {b Determinism.}  The manifest is processed in fixed-size chunks
    ({!chunk_size}, independent of the pool size) over the
    {!Darm_harness.Parallel_sweep} domain pool; each chunk's results
    are appended to the output file in manifest order before the next
    chunk starts, so at most one chunk of payloads is in memory at a
    time, a crashed or budget-cut run leaves a valid JSONL prefix, and
    the emitted order is the manifest order at any [--jobs] count.
    Result payloads carry one wall-clock field ([pass_ms]); every other
    byte is deterministic, and a run that hits the cache replays the
    stored bytes verbatim — so a warm run's output is byte-identical to
    the cold run that populated the cache, whatever either run's job
    count.

    {b Budget.}  As in {!Oracle.run_seeds}, the deadline is only
    checked between chunks: no new chunk starts past it, so a generous
    budget never changes the outcome and a tight one cuts the manifest
    at a deterministic chunk boundary. *)

(** {2 Manifest} *)

(** ["darm-manifest-v1"] — one spec object per line (doc/fleet.md). *)
val manifest_schema : string

type spec =
  | Registry of {
      rs_tag : string;  (** registry kernel tag, e.g. ["BIT"] *)
      rs_block_size : int option;  (** default: the kernel's first *)
      rs_n : int option;  (** default: the kernel's [default_n] *)
      rs_seed : int;  (** input seed (default 2022) *)
    }
  | Fuzz of {
      fz_seed : int;  (** generator seed *)
      fz_block_size : int;
      fz_smoke : bool;  (** {!Gen.smoke_cfg} vs {!Gen.default_cfg} *)
      fz_features : string;  (** {!Gen.features_of_string} spec *)
      fz_inject : string option;
          (** {!Mutate} bug tag (XBAR/XRACE/XRW) grafted onto the
              generated kernel before anything runs — the checker then
              rejects it ([check-failed]), which is the point: an
              injected manifest is a known-bad workload for exercising
              failure paths ([--fail-on-error], CI).  Serialized as the
              optional [inject] field of [darm-manifest-v1]. *)
    }

(** Stable display name: the kernel tag, or [fuzz_<seed>]. *)
val spec_name : spec -> string

val spec_to_json : spec -> Darm_obs.Json.t

(** Parse one manifest line's object; validates the feature spec and
    the block-size/array-size precondition of fuzz subjects. *)
val spec_of_json : Darm_obs.Json.t -> (spec, string) result

(** All specs of a JSONL manifest, in file order.  Blank lines are
    skipped; a parse error carries [path:line:] with the 1-based line
    number, and a path that cannot be read (missing, a directory,
    unreadable) is an [Error] naming it. *)
val read_manifest : string -> (spec list, string) result

(** Write a fuzz manifest of [count] consecutive seeds (atomic,
    binary).  Defaults: [seed_start 0], [block_size 64], [smoke true],
    [features "all"], no [inject]. *)
val write_fuzz_manifest :
  path:string ->
  count:int ->
  ?seed_start:int ->
  ?block_size:int ->
  ?smoke:bool ->
  ?features:string ->
  ?inject:string ->
  unit ->
  unit

(** {2 Running} *)

(** Specs per deterministic chunk (64): the bound on in-flight results
    and the granularity of both output flushing and the budget check. *)
val chunk_size : int

type summary = {
  bt_total : int;  (** manifest entries *)
  bt_run : int;  (** entries processed (= total unless budget-cut) *)
  bt_hits : int;  (** served from the result cache *)
  bt_misses : int;  (** computed (and stored, when a cache is open) *)
  bt_incorrect : int;  (** melded output mismatched the baseline *)
  bt_check_failed : int;  (** checker-rejected, never simulated *)
  bt_errors : int;  (** crashed or invalid specs (never cached) *)
  bt_wall_s : float;
  bt_budget_exhausted : bool;
  bt_pass_ms_p99 : float option;
      (** exact (nearest-rank) p99 of [pass_ms] over the run's computed
          [ok] specs; [None] when nothing was computed (fully warm run,
          or only errors).  Flows into the history record's
          [pass_ms_p99] so [bench-diff] gates tail latency. *)
  bt_stalled : int;
      (** watchdog stall incidents over the run (0 without telemetry —
          the watchdog only runs when [events] or [snapshot] is on) *)
}

(** The history-record form ({!Darm_harness.History.of_batch}). *)
val to_batch_stats : summary -> Darm_harness.History.batch

(** [run ~out specs] streams [specs] through the pipeline and appends
    one [darm-batchres-v1] JSON line per processed spec to [out]
    (truncated at start, appended chunk-by-chunk, binary).  [cache]
    (optional) serves hits and absorbs misses; a hit is parsed into
    the payload's typed fields, and an entry that is corrupt, truncated
    or missing a field (or holds one of the wrong type) is evicted as
    poison and recomputed, never fatal and never replayed.  [budget_s] bounds
    elapsed time as described above, read from the monotonic
    {!Clock}, as are the watchdog's [now] and every latency.

    {b Telemetry} (all optional, all off by default — a plain call
    behaves exactly as before):

    - [registry]: a live {!Darm_obs.Metrics_registry} the run accounts
      into as it goes — counters per processed spec, latency histograms
      ([darm_batch_pass_ms] / [darm_batch_sim_ms] /
      [darm_batch_cache_lookup_ms], computed specs only for the first
      two), progress/health gauges and the [darm_cache_*] /
      [darm_worker_*] families.  After [run] returns the registry holds
      the final state — it is the one exporter of these families, so
      callers snapshot it directly.
    - [events]: path of a [darm-events-v1] stream
      ({!Darm_obs.Events}) journaling the run/chunk/spec lifecycle.
      Core events are emitted by the coordinator in manifest order, so
      the canonicalized stream is byte-identical at any [jobs] given
      the same starting cache state.
    - [snapshot]: base path for periodic atomic
      {!Darm_obs.Snapshot} files ([<base>.prom] / [<base>.json]),
      rewritten every [cadence_s] (default 1.0s, clamped to >= 0.05s)
      by a monitor domain — the first write happens immediately, so
      even a fast run leaves at least one mid-run snapshot.
    - [stall_deadline_s] (default 30.): a busy worker with no completed
      spec for this long is flagged [stalled] (an event + a degraded
      [darm_run_health] gauge), recovering on its next completion.
      Size it generously above the slowest expected spec: one enormous
      spec is indistinguishable from a hang until it completes.

    The monitor domain only exists when [events] or [snapshot] is
    given; [registry] alone adds no threads and no files. *)
val run :
  ?jobs:int ->
  ?budget_s:float ->
  ?cache:Darm_harness.Result_cache.t ->
  ?registry:Darm_obs.Metrics_registry.t ->
  ?events:string ->
  ?snapshot:string ->
  ?cadence_s:float ->
  ?stall_deadline_s:float ->
  out:string ->
  spec list ->
  summary

(** One deterministic summary line (the CLI's last stdout line):
    [batch: R/T kernel(s), H hit(s) / M miss(es), hit-rate P%, ...]. *)
val summary_to_string : summary -> string
