(** Parser for the textual IR format emitted by {!Printer} — a
    hand-written lexer and recursive-descent parser, so kernels can be
    stored in [.cir] files, inspected, edited and fed back through the
    pipeline (and so tests can round-trip printer output).

    Forward references are legal only where SSA allows them (phi
    operands); everything else must be defined textually before use,
    which {!Verify} re-checks afterwards.  [;] starts a comment running
    to the end of the line. *)

exception Parse_error of string

(** Parse a module (a sequence of kernels) from a string. *)
val parse_module : name:string -> string -> (Ssa.modul, string) result

(** Parse a string containing exactly one kernel. *)
val parse_func : string -> (Ssa.func, string) result
