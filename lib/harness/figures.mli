(** Reproduction of every figure and table of the paper's evaluation
    (§VI).  Each function runs the experiment and prints the same
    rows/series the paper reports, with the paper's headline numbers
    quoted alongside; see EXPERIMENTS.md for the recorded
    paper-vs-measured comparison.

    Experiment points are computed on the {!Parallel_sweep} domain pool
    ([jobs] defaults to [DARM_JOBS] / the core count) and printed from
    the main domain in a fixed order: the bytes written are identical
    for any pool size. *)

module E = Experiment

(** Print a failure banner for incorrect results; [true] = all clean. *)
val check_banner : E.result list -> bool

(** Synthetic benchmark speedups per block size, with geomean. *)
val fig7 : ?n:int -> ?jobs:int -> unit -> E.result list

(** Real-world benchmark speedups per block size ('+' = best baseline
    block size); GM, GM-best, and the speedup spread over input seeds. *)
val fig8 : ?n:int -> ?jobs:int -> unit -> E.result list

(** ALU utilization, baseline vs DARM, at each benchmark's
    best-improvement block size.  Returns (tag, baseline%, darm%) per
    kernel plus the underlying results for correctness gating. *)
val fig9 :
  ?n:int -> ?jobs:int -> unit -> (string * float * float) list * E.result list

(** Memory instruction counters after DARM normalized to baseline.
    Returns (tag, vector, shared, flat) per kernel plus the underlying
    results. *)
val fig10 :
  ?n:int ->
  ?jobs:int ->
  unit ->
  (string * float * float * float) list * E.result list

(** Capability matrix: tail merging / branch fusion / DARM on the three
    control-flow pattern classes.  [true] = every cell passed its
    equivalence check. *)
val table1 : ?n:int -> ?jobs:int -> unit -> bool

(** Compile time of the pass pipelines — IR construction plus the
    cleanup pipeline (O3), with and without the DARM pass — averaged
    over [reps] runs on the monotonic clock: the one Table II timing.
    Serial by design — it measures elapsed time.  (The per-point
    [Experiment.t_ms] is a different quantity: the transform alone.) *)
val table2 : ?reps:int -> unit -> unit

(** CI smoke pass: every registered kernel once at its smallest
    workload, one block size, one seed.  Returns all-correct plus the
    results (input to {!History.of_results}). *)
val smoke : ?jobs:int -> unit -> bool * E.result list
