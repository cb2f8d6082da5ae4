(** Trace sinks: serialize a {!Trace.t} buffer to JSON Lines or to the
    Chrome trace-event format that Perfetto / [chrome://tracing] load
    directly.

    Both formats share one event schema — every event object carries
    [name], [cat], [ph], [ts], [pid], [tid] and an [args] object, then a
    trailing [rt] object when the event's envelope ({!Trace.event}
    [ev_rt]) is non-empty — so a JSONL file is exactly the Chrome
    [traceEvents] array split one event per line.  Serialization is
    deterministic: byte-identical buffers in, byte-identical files
    out. *)

type format = Jsonl | Chrome

(** One event object per line, in emission order. *)
val to_jsonl : Trace.t -> string

(** [{"traceEvents":[...],"displayTimeUnit":"ms"}] — load in Perfetto or
    [chrome://tracing]. *)
val to_chrome : Trace.t -> string

(** Parse a JSONL document back into its event list (round trip of
    {!to_jsonl}).  Blank lines are skipped; an event missing any of
    [name]/[cat]/[ph]/[ts]/[pid]/[tid], or with non-scalar [args]/[rt]
    values, is an error, which reads ["<name>:<line>: ..."] with lines
    counted from 1. *)
val events_of_jsonl : name:string -> string -> (Trace.event list, string) result

(** A {!Trace.create} sink that writes each event to [path] (created or
    truncated, binary) as one JSONL line and flushes it, so a reader
    following the file always sees whole lines; returned with the
    function that closes the file. *)
val jsonl_sink : path:string -> (Trace.event -> unit) * (unit -> unit)

(** Serialize to [path] and then re-read and re-parse the written file,
    raising [Failure] if the bytes on disk do not parse back to a
    non-empty event list — a malformed trace fails the run that wrote
    it instead of the later analysis that loads it.  The write is
    binary and atomic ({!Fsio.write_atomic}): the bytes land in a
    sibling temp file and are renamed over [path] only after they
    validate, so a crash or a failed validation never leaves a torn
    trace behind. *)
val write_file : format:format -> path:string -> Trace.t -> unit
