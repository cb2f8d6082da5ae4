(** The one clock for durations: seconds on the monotonic clock
    ([bechamel.monotonic_clock]).

    Its origin is arbitrary, so a reading means nothing on its own;
    every use is a difference from an earlier reading: the fuzz
    oracle's and batch engine's [--budget-s] deadlines, the {!Health}
    watchdog's [now], batch latency spans, and the compile-time numbers
    ([Experiment.t_ms], Table II, the bench's [wall_s]).  Unlike
    [Unix.gettimeofday] it never steps, so an NTP or manual clock
    change cannot cut a budget short, stretch it, flag a healthy worker
    stalled, or skew a timing.  Record timestamps (history and batch
    entries) stay on wall-clock time. *)

val now_s : unit -> float
