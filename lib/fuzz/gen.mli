(** Feature-flagged structured kernel generator — the adversarial input
    source of the conformance subsystem.

    Random arithmetic in nested divergent diamonds, plus the hazard
    classes the checkers and the melding pass actually have to survive:
    bounded loops with uniform and thread-dependent (divergent) trip
    counts, correctly-guarded [syncthreads] phases, shared-memory tiles
    with affine tid addressing, nested and sequential diamonds, and
    switch-like comparison ladders.  Each hazard class sits behind a
    {!features} flag so a checker suite can target exactly its own.

    Race-freedom discipline (what makes the differential oracle sound):
    divergent code only {e reads} shared memory and only writes the
    thread's own cell of the output array; every shared-memory write is
    fenced between two block-uniform barriers and touches only the
    thread's own tile cell.  Provided [array_size >= block_size], a
    generated kernel is race-free by construction and its output is
    schedule-independent — the property {!Oracle} exploits by diffing
    runs across warp sizes.

    Generation is deterministic: the same [seed] and [cfg] produce a
    byte-identical printed kernel (the test suite pins this down). *)

open Darm_ir

type features = {
  loops_uniform : bool;     (** counted loops with constant trip counts *)
  loops_divergent : bool;   (** trip counts derived from the thread id *)
  barriers : bool;          (** uniform barrier-fenced shared write phases *)
  shared_tile : bool;       (** shared scratch tile, seeded then read *)
  nested_diamonds : bool;   (** diamonds forced directly inside diamonds *)
  switch_ladders : bool;    (** 4-way equality-comparison ladders *)
}

val all_features : features
val no_features : features

(** Parse a feature-set spec: ["all"], ["none"], or a comma-separated
    subset of [loops-uniform], [loops-divergent], [barriers],
    [shared-tile], [nested-diamonds], [switch-ladders]. *)
val features_of_string : string -> (features, string) result

val features_to_string : features -> string

type cfg = {
  max_depth : int;        (** nesting depth of if/loop constructs *)
  stmts_per_block : int;  (** statements per structured block (>= 1) *)
  array_size : int;       (** power of two; the oracle additionally
                              needs [array_size >= block_size] *)
  features : features;
}

val default_cfg : cfg

(** A small configuration for quick smoke fuzzing. *)
val smoke_cfg : cfg

(** The configuration of a profile and a feature spec: {!smoke_cfg}
    when [smoke], else {!default_cfg}, with the features
    {!features_of_string} reads from [features] (whose error it
    returns).  [darm_opt fuzz] and the batch manifest's fuzz specs both
    read their generator settings through it. *)
val cfg_of : smoke:bool -> features:string -> (cfg, string) result

(** Generate a kernel over parameters [(a, ptr global); (b, ptr global)];
    deterministic in [(seed, cfg)]. *)
val generate : ?cfg:cfg -> seed:int -> unit -> Ssa.func

(** The two-array workload every generated kernel runs over, around
    any kernel [f] with {!generate}'s parameters: arrays [a] and [b] of
    [n] cells each, filled from [seed + 1] and [seed + 2], in a fresh
    global memory of [2n] cells; a grid of [max 1 (n / block_size)]
    blocks of [block_size] threads; [read_result] returns [a] then [b].
    The [reference] accessor is empty: differential testing uses the
    untransformed run as the oracle. *)
val workload :
  n:int ->
  seed:int ->
  block_size:int ->
  Ssa.func ->
  Darm_kernels.Kernel.instance

(** [workload] around [generate ~cfg ~seed ()], with
    [n = cfg.array_size]. *)
val instance :
  ?cfg:cfg -> seed:int -> block_size:int -> unit -> Darm_kernels.Kernel.instance
