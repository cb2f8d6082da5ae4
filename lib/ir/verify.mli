(** IR well-formedness and SSA verifier.

    Run after every transformation in the test suites; a passing
    verifier means the function can be printed, parsed back, simulated
    and further transformed.  Checks: block/terminator structure, branch
    targets inside the function's block list, phi incoming lists
    matching the predecessor sets, each instruction's types
    ({!check_instr}), and def-use dominance (including per-edge
    dominance for phi operands) over the blocks reachable from the
    entry.  Dominance comes from the shared {!Dom} tree, so each
    def-use query is O(1). *)

type error = { msg : string }

(** [check_instr err op operands targets ty] passes to [err] one
    message per rule that an instruction [op operands] with branch
    targets [targets] and type [ty] breaks: its arity, its operand
    types, and its type, which must be exactly
    {!Ssa.result_ty}[ op operands] where the rule derives one; a [load]
    must state a scalar, and a [phi]'s incomings must fit its stated
    type without narrowing a pointer into a concrete space; a [br] has
    one target, a [condbr] two, any other non-phi none.  It allocates
    nothing unless it reports.  {!run} applies it to every
    instruction; {!Builder} to each one before building it. *)
val check_instr :
  (string -> unit) ->
  Op.t ->
  Ssa.value array ->
  Ssa.block array ->
  Types.ty ->
  unit

(** [run f] returns the list of well-formedness violations in [f]; an
    empty list means the function verifies. *)
val run : Ssa.func -> error list

exception Invalid_ir of string

(** Like {!run} but raises {!Invalid_ir} with a readable report (the
    violations plus the offending IR) on the first failure. *)
val run_exn : Ssa.func -> unit
