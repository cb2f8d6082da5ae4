(** Append-only bench history and the regression sentinel.

    Every bench run appends one env-fingerprinted record to a JSONL
    file ([BENCH_history.jsonl] by default, one JSON document per
    line, schema [darm-bench-hist-v2] — see doc/schemas.md): the one
    machine-readable perf record of the bench harness, carrying the
    performance trajectory across commits.  {!diff} compares two
    records under configurable noise thresholds and is the engine of
    [darm_opt bench-diff] — the CI regression sentinel.

    Cycle counts are deterministic per (kernel, block size, seed, n,
    warp size), so the cycle thresholds can be tight; [pass_ms] is
    wall-clock and needs generous slack. *)

val schema : string
(** ["darm-bench-hist-v2"] — v2 added the memory-model fingerprint
    ([env.mem_model], per-entry [mem_model]).  The reconvergence-model
    fingerprint ([env.reconvergence], per-entry [reconvergence]) was
    added within the v2 window: it is always written going forward, and
    lines without it load as ["stack"] (the only model that existed
    when they were recorded).  The per-entry counter columns
    ([alu_util_base]/[_opt], [divergent_branches_base]/[_opt]) were
    added the same way and load as [None] when absent. *)

val default_path : string
(** ["BENCH_history.jsonl"]. *)

(** Environment fingerprint stamped on every record: enough to tell
    "the code regressed" from "the machine changed". *)
type env = {
  ocaml_version : string;
  os_type : string;
  word_size : int;
  warp_size : int;
  jobs : int;  (** domain-pool size the run used *)
  mem_model : string;
      (** memory model(s) the run covered: "flat", "hier" or
          "flat+hier" *)
  reconvergence : string;
      (** reconvergence model(s) the run covered: "stack", "its" or
          "stack+its"; "stack" when absent from an older line *)
}

(** Fingerprint of the current process ([jobs] defaults to
    {!Parallel_sweep.default_jobs}); the models are
    {!Experiment.sim_config}'s. *)
val current_env : ?jobs:int -> unit -> env

(** One experiment point, flattened to the serialized fields. *)
type entry = {
  e_kernel : string;
  e_block_size : int;
  e_transform : string;
  e_mem_model : string;  (** "flat" or "hier"; part of the point key *)
  e_reconvergence : string;
      (** "stack" or "its"; part of the point key, "stack" when absent
          from an older line *)
  e_rewrites : int;
  e_base_cycles : int;
  e_opt_cycles : int;
  e_alu_util_base : float option;
      (** ALU utilization (active lanes over issued lanes) of the
          baseline run; the four counter columns were added within the
          v2 window, so they are always written going forward and
          [None] when absent from an older line.  {!diff} does not gate
          them. *)
  e_alu_util_opt : float option;
  e_divergent_branches_base : int option;
      (** dynamic warp splits of the baseline run *)
  e_divergent_branches_opt : int option;
  e_pass_ms : float;
  e_correct : bool;
}

(** Speedup recomputed from the stored cycles (never trusted from the
    file); 0 when the optimized run retired zero cycles. *)
val entry_speedup : entry -> float

(** Aggregate throughput stats of one [darm_opt batch] run — the
    "millions of users" axis of the trajectory.  Batch records carry no
    per-kernel entries (a 100k-kernel sweep would dwarf the history);
    instead the sentinel gates on cache hit-rate and kernels/sec. *)
type batch = {
  b_kernels : int;  (** manifest entries actually processed *)
  b_hits : int;  (** result-cache hits *)
  b_misses : int;  (** result-cache misses (computed kernels) *)
  b_incorrect : int;  (** kernels whose melded output mismatched *)
  b_wall_s : float;  (** wall-clock of the whole batch run *)
  b_pass_ms_p99 : float option;
      (** p99 of the computed (cache-missed) specs' [pass_ms]; [None]
          when the run computed nothing (fully warm) — serialized as
          [pass_ms_p99] only when present, so the field addition keeps
          the schema version (doc/schemas.md).  {!diff} gates it under
          the same factor+slack envelope as per-point [pass_ms], and
          only when both records carry it. *)
}

(** [hits / (hits + misses)]; 0 when nothing ran. *)
val batch_hit_rate : batch -> float

(** [kernels / wall_s]; 0 when the wall-clock is degenerate. *)
val batch_kernels_per_sec : batch -> float

type record = {
  r_time : float;  (** unix seconds at append time *)
  r_env : env;
  r_wall_s : float option;  (** harness wall-clock, when known *)
  r_entries : entry list;
  r_batch : batch option;  (** present on [darm_opt batch] records *)
}

(** One record of [results], which may mix machine models.  Each
    entry's model names and the warp width of its ALU utilization come
    from its result's {!Experiment.result.machine}; the env's
    [mem_model] and [reconvergence] name every model the entries cover,
    in {!Darm_sim.Simulator}'s order ("flat+hier", "stack+its"). *)
val of_results :
  ?wall_s:float -> ?jobs:int -> time:float -> Experiment.result list -> record

(** An entry-less record carrying batch throughput stats. *)
val of_batch : ?jobs:int -> time:float -> batch -> record

val record_to_json : record -> Darm_obs.Json.t

(** Parse one history line; checks the [schema] key.  Accepts
    [darm-bench-hist-v1] lines for one version window — their missing
    [mem_model] fields default to ["flat"].  Missing [reconvergence]
    fields (v1 and pre-ITS v2 lines alike) default to ["stack"]. *)
val record_of_json : Darm_obs.Json.t -> (record, string) result

(** Append one line to the history file (creating it if needed). *)
val append : ?path:string -> record -> unit

(** All records of a history file in file order.  [Error] (never an
    exception) on a missing, unreadable or directory path, an
    unparsable line or a wrong schema — CI treats any of these as a
    corrupt history. *)
val load : ?path:string -> unit -> (record list, string) result

(** {2 Regression sentinel} *)

type thresholds = {
  max_geomean_drop : float;
      (** relative drop of recomputed geomean speedup that counts as a
          regression (default 0.02 = 2%) *)
  max_cycle_growth : float;
      (** per-point relative growth of [opt_cycles] that counts as a
          regression (default 0.02); cycles are deterministic, so this
          is headroom for intentional trade-offs, not timer noise *)
  pass_ms_factor : float;
      (** candidate [pass_ms] beyond [factor * base + slack] is a
          regression; wall-clock, so generous (default 10.0) *)
  pass_ms_slack : float;  (** absolute ms slack (default 100.0) *)
  min_kps_ratio : float;
      (** when both records carry {!batch} stats, candidate
          kernels/sec below [ratio * baseline] is a throughput
          regression; wall-clock and machine-dependent, so very
          generous (default 0.1 = a 10x slowdown) *)
}

val default_thresholds : thresholds

type diff = {
  d_regressions : string list;
      (** human-readable findings, deterministic order; empty = pass *)
  d_notes : string list;
      (** non-fatal observations (env changes, coverage differences,
          improvements) *)
  d_geomean_base : float;  (** over the compared points, baseline *)
  d_geomean_cand : float;  (** over the compared points, candidate *)
  d_compared : int;  (** points present in both records *)
}

(** [diff ~baseline candidate] compares the candidate record against
    the baseline.  Points are keyed by
    (kernel, block size, transform, mem model, reconvergence model);
    only keys present in both are compared (coverage differences become
    notes).  Speedups and geomeans are recomputed from cycles.
    Correctness flips and zero-cycle entries are always regressions.
    When both records carry {!batch} stats the sentinel additionally
    gates batch throughput (kernels/sec, threshold [min_kps_ratio]) and
    new incorrect kernels; two entry-less batch records compare on
    throughput alone instead of tripping the no-common-points gate. *)
val diff : ?thresholds:thresholds -> baseline:record -> record -> diff

val diff_ok : diff -> bool

(** Render a diff for the terminal (deterministic). *)
val diff_to_text : diff -> string
