(** The one clock of {!Batch} and {!Oracle}: seconds on the monotonic
    clock ([bechamel.monotonic_clock]).

    Its origin is arbitrary, so a reading means nothing on its own;
    every use is a difference from an earlier reading: [--budget-s]
    deadlines, the {!Darm_obs.Health} watchdog's [now], and latency
    spans.  Unlike [Unix.gettimeofday] it never steps, so an NTP or
    manual clock change cannot cut a budget short, stretch it, or flag
    a healthy worker stalled. *)

val now_s : unit -> float
