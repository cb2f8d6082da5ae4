(** Deliberately broken kernels for the sanity checkers' negative
    tests.  They are registered under {!Registry.negative} — reachable
    by tag through {!Registry.find_any} for [darm_opt check] and the CI
    script — but kept out of {!Registry.all} so the benchmark sweeps
    and differential fuzzers never execute them (the barrier one would
    hang a real GPU, and hangs the simulator's warp scheduler too). *)

(** By tag, in order:
    - [XBAR]: a [syncthreads] guarded by [tid < 16] — barrier
      divergence.
    - [XRACE]: every thread writes both [s\[tid\]] and [s\[tid+1\]]
      with no barrier between — write-write race.
    - [XRW]: writes [s\[tid\]] then reads [s\[tid+1\]] with no
      barrier between — read-write race. *)
val all : Kernel.t list
