(** Lockstep differential oracle: the conformance subsystem's judge.

    A {!subject} (a generated, mutated, or corpus kernel over two global
    arrays) is put through the full matrix:

    - {b verifier} — the IR must be well-formed;
    - {b checkers} — {!Darm_checks.Checker} must report no error
      diagnostics on the untransformed kernel (kernels that fail here
      are reported and never executed — they are the mutation-kill
      targets);
    - {b schedule independence} — the untransformed kernel runs at warp
      sizes 64, 16 and 4 and the final memory images must agree
      (race-free kernels are schedule-independent; the warp size is the
      schedule knob);
    - {b every pipeline stage} — cleanups, tail merging, branch fusion,
      and DARM with and without unpredication (melding stages run as a
      checked {!Darm_core.Pass.run}, which raises
      {!Darm_core.Pass.Validation_failed} on the first meld that adds
      a checker error): each transformed kernel must verify, mint no
      new checker errors, and reproduce the baseline memory image at
      every warp size;
    - {b cross-model differential} — the untransformed kernel and every
      transformed kernel are re-executed under independent thread
      scheduling ({!Darm_sim.Simulator.Its}) at every warp size, and
      the final memory image must match the stack-model baseline
      (reconvergence strategy is a schedule knob, so race-free kernels
      must be insensitive to it);
    - {b metrics invariants} — for melding stages, the per-branch
      divergence attribution must stay consistent: branch splits sum to
      the aggregate divergence counter in both runs, all counters are
      non-negative, and the per-meld cycles-saved rows of
      {!Darm_harness.Report} plus the residual equal the total cycle
      delta exactly.

    Everything is deterministic: the same subject yields the same
    failure list, whatever the parallelism, so [darm_opt fuzz] reports
    byte-identical failure sets at any [--jobs] count. *)

open Darm_ir

(** {2 Subjects} *)

type subject = {
  sb_name : string;
  sb_fresh : unit -> Ssa.func;
      (** a {e fresh} copy per call — transformations mutate in place *)
  sb_block_size : int;
  sb_n : int;  (** element count of each of the two arrays *)
  sb_input_seed : int;  (** seed of the deterministic array contents *)
}

(** [check_block_size cfg b] is [Ok b] when [b] is a block size the
    generated kernels of profile [cfg] can run at: positive and at most
    [cfg.array_size].  A larger block would make threads of one block
    share output cells, the kernel would race against itself, and the
    schedule oracle would report phantom failures.  The one check behind
    both a manifest's fuzz specs and [darm_opt fuzz -b]; the error is
    the manifest's message. *)
val check_block_size : Gen.cfg -> int -> (int, string) result

(** A generated kernel (optionally with an injected bug), named
    [fuzz_<seed>] or [fuzz_<seed>+<TAG>], over [n = cfg.array_size] and
    input seed [seed].  The one place that generates a kernel and grafts
    a bug: [sb_fresh] raises [Failure "inject: <reason>"] when the bug
    cannot be grafted.  Raises [Invalid_argument] when
    {!check_block_size} rejects [block_size]. *)
val subject_of_seed :
  ?cfg:Gen.cfg -> ?inject:Mutate.bug -> block_size:int -> seed:int -> unit ->
  subject

(** A kernel stored as printed IR (corpus entries, shrink candidates).
    The text must hold exactly one kernel taking two global pointer
    parameters; parse errors surface as [crash] failures. *)
val subject_of_text :
  name:string ->
  block_size:int ->
  n:int ->
  input_seed:int ->
  string ->
  subject

(** {2 Pipeline stages} *)

(** The {!Darm_harness.Experiment.transforms} entries cleanups,
    tail-merge, branch-fusion, darm and darm-nounpred, in that order;
    {!run_subject} applies each in its [checked] mode. *)
val stages : (string * Darm_harness.Experiment.transform) list

val warp_sizes : int list
(** [64; 16; 4] *)

(** {2 Failures} *)

type failure = {
  fl_subject : string;
  fl_stage : string;  (** ["base"] or a stage name *)
  fl_kind : string;
      (** [verifier], [checker:<id>], [checker-regression:<id>], [tv],
          [schedule], [mismatch], [xmodel] (stack-vs-its cross-model
          memory divergence), [metrics], [crash] *)
  fl_detail : string;
}

(** [stage/kind] — the shrinker's failure signature. *)
val failure_key : failure -> string

(** One deterministic line: [FAIL subject=.. stage=.. kind=.. :: detail]. *)
val failure_to_string : failure -> string

(** {2 Running} *)

(** Run [f] over {!Gen.workload} [~n ~seed:input_seed ~block_size] at
    [warp_size] under [reconvergence] (default the stack model), with a
    budget of 10M cycles per warp; returns the metrics and the final
    [a] then [b].  Every leg of {!run_subject} runs through this, and so
    does {!Batch} at warp 64 under the stack model. *)
val exec :
  ?reconvergence:Darm_sim.Simulator.reconvergence ->
  n:int ->
  input_seed:int ->
  block_size:int ->
  warp_size:int ->
  Ssa.func ->
  Darm_sim.Metrics.t * Darm_sim.Memory.rv array

(** Run one subject through the matrix; [[]] means fully conformant.
    [warps] (default {!warp_sizes}) narrows the schedule sweep — the
    shrinker passes [[64]] so each candidate costs two simulations
    instead of six. *)
val run_subject :
  ?stages:(string * Darm_harness.Experiment.transform) list ->
  ?warps:int list ->
  subject ->
  failure list

(** [budgeted_chunks ?budget_s ~size items f] hands [items] to [f] in
    consecutive chunks of [size] (the last may be shorter), with each
    chunk's index, and returns whether the budget cut the list short.
    [budget_s] bounds elapsed time on the monotonic {!Clock}, read only
    between chunks: no chunk starts past the deadline, so a generous
    budget never changes the outcome.  {!run_seeds} and {!Batch.run}
    both run through it. *)
val budgeted_chunks :
  ?budget_s:float -> size:int -> 'a list -> (int -> 'a list -> unit) -> bool

type summary = {
  sm_failing : (subject * failure list) list;
      (** the subjects that failed, in seed order, each with its
          {!run_subject} failures *)
  sm_seeds_run : int;
  sm_seeds_total : int;
  sm_budget_exhausted : bool;
}

(** Fan a seed range over the domain pool ({!Darm_harness.Parallel_sweep})
    in {!budgeted_chunks}; the failing subjects come back in seed order
    for any [jobs] (and [sm_budget_exhausted] says when the range was
    cut short). *)
val run_seeds :
  ?jobs:int ->
  ?cfg:Gen.cfg ->
  ?inject:Mutate.bug ->
  ?budget_s:float ->
  block_size:int ->
  seeds:int list ->
  unit ->
  summary
