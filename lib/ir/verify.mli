(** IR well-formedness and SSA verifier.

    Run after every transformation in the test suites; a passing
    verifier means the function can be printed, parsed back, simulated
    and further transformed.  Checks: block/terminator structure, branch
    targets inside the function's block list, phi incoming lists
    matching the predecessor sets, and def-use dominance (including
    per-edge dominance for phi operands) over the blocks reachable from
    the entry.  Dominance comes from the shared {!Dom} tree, so each
    def-use query is O(1). *)

type error = { msg : string }

(** [run f] returns the list of well-formedness violations in [f]; an
    empty list means the function verifies. *)
val run : Ssa.func -> error list

exception Invalid_ir of string

(** Like {!run} but raises {!Invalid_ir} with a readable report (the
    violations plus the offending IR) on the first failure. *)
val run_exn : Ssa.func -> unit
