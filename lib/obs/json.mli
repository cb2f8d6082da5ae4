(** Minimal JSON tree: enough to emit and re-read trace files and bench
    summaries without an external dependency.

    The emitter is deterministic — object fields print in the order
    given, numbers always format the same way — so two structurally
    identical documents serialize to identical bytes (the property the
    trace-determinism guarantee rests on). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact (no whitespace) serialization.  Strings are escaped per RFC
    8259; non-finite floats — which JSON cannot represent — emit as
    [null]. *)
val to_buffer : Buffer.t -> t -> unit

(** The emitter's deterministic float formatting (shortest decimal that
    round-trips) — shared with the Prometheus exposition of
    {!Metrics_registry} so every serialized number prints one way. *)
val float_repr : float -> string

val to_string : t -> string

(** Parse one JSON document (surrounding whitespace allowed).  Numbers
    without [.]/[e] parse as [Int], others as [Float]; [\uXXXX] escapes
    decode to UTF-8. *)
val parse : string -> (t, string) result

(** [member k j] — field [k] of object [j], if present. *)
val member : string -> t -> t option

(** {2 Field readers}

    [get_* j k] reads field [k] of object [j].  An absent or mistyped
    field is [Error "missing <type> field \"k\""]; an integral
    [Float] reads as an int and an [Int] as a float. *)

val get_str : t -> string -> (string, string) result
val get_int : t -> string -> (int, string) result
val get_float : t -> string -> (float, string) result
val get_bool : t -> string -> (bool, string) result

(** A list field, [elt] applied to each element in order; the first
    element's [Error] wins. *)
val get_list :
  (t -> ('a, string) result) -> t -> string -> ('a list, string) result

(** A field that may be absent: [Ok None] when it is, else [get j k]. *)
val get_opt :
  (t -> string -> ('a, string) result) -> t -> string ->
  ('a option, string) result

(** [get_opt get_str], but a present non-string is
    [Error "field \"k\" is not a string"]. *)
val get_str_opt : t -> string -> (string option, string) result

(** Decode every non-blank line of a JSONL document, in order; the
    first failure reads ["<name>:<line>: invalid JSON: ..."] or
    ["<name>:<line>: <decode's error>"], lines counted from 1. *)
val parse_lines :
  name:string -> (t -> ('a, string) result) -> string ->
  ('a list, string) result
