(** IR hygiene lints: cheap structural checks that catch kernels (or
    transformation bugs) the type-level verifier accepts but that trap,
    mis-simulate, or read poison at run time.

    - [undef-operand] ({e warning}): an [Undef] used directly as an
      operand outside [phi]/[select].  Melding legitimately introduces
      undefs into phi incomings and select arms for values that only
      exist on one path, so those positions are exempt; anywhere else
      an undef operand means the result is poison.
    - [undef-trap-hazard] ({e error}): an [Undef] in a position where
      the simulator traps — a load/store address, a [condbr] condition,
      or the divisor of [sdiv]/[srem].
    - [alloc-shared-outside-entry] ({e error}): [alloc.shared] outside
      the entry block; allocation must be unconditional and uniform.

    Type errors (a load or store through a non-pointer, pointer flow
    that changes or narrows an address space) are {!Darm_ir.Verify}'s:
    {!Checker} reports them as [invalid-ir] and runs no lint on such a
    function. *)

open Darm_ir

val check : Ssa.func -> Diag.t list

(** The [id]s of the lints' diagnostics; suite_checks' "hygiene: lints"
    case matches on them. *)
val id_undef_operand : string
val id_undef_trap : string
val id_alloc_outside_entry : string
