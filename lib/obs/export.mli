(** Trace sinks: serialize a {!Trace.t} buffer to JSON Lines or to the
    Chrome trace-event format that Perfetto / [chrome://tracing] load
    directly.

    Both formats share one event schema — every event object carries
    [name], [cat], [ph], [ts], [pid], [tid] and an [args] object — so a
    JSONL file is exactly the Chrome [traceEvents] array split one event
    per line.  Serialization is deterministic: byte-identical buffers
    in, byte-identical files out. *)

type format = Jsonl | Chrome

(** One event object per line, in emission order. *)
val to_jsonl : Trace.t -> string

(** [{"traceEvents":[...],"displayTimeUnit":"ms"}] — load in Perfetto or
    [chrome://tracing]. *)
val to_chrome : Trace.t -> string

val event_to_json : Trace.event -> Json.t

(** Inverse of {!event_to_json}; rejects objects missing any of the
    required [name]/[ph]/[ts]/[pid]/[tid] fields. *)
val event_of_json : Json.t -> (Trace.event, string) result

(** Parse a JSONL document back into its event list (round-trip of
    {!to_jsonl}; blank lines are skipped). *)
val events_of_jsonl : string -> (Trace.event list, string) result

(** Serialize to [path] and then re-read and re-parse the written file,
    raising [Failure] if the bytes on disk do not parse back to a
    non-empty event list — a malformed trace fails the run that wrote
    it instead of the later analysis that loads it.  The write is
    binary and atomic ({!Fsio.write_atomic}): the bytes land in a
    sibling temp file and are renamed over [path] only after they
    validate, so a crash or a failed validation never leaves a torn
    trace behind. *)
val write_file : format:format -> path:string -> Trace.t -> unit
