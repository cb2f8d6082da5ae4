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
    - [memop-addr-not-pointer] ({e error}): load/store through a
      non-pointer value.
    - [addrspace-mismatch] ({e error}): address-space-violating
      pointer flow — a [gep] that changes its base's space, an
      [addrspace.cast] whose result is not flat, or a [phi]/[select]
      that {e narrows} (a flat incoming into a concrete-space result;
      widening into flat is fine).  Mirrors the {!Darm_ir.Verify}
      address-space rules as diagnostics. *)

open Darm_ir

val check : Ssa.func -> Diag.t list

(** The [id]s of the lints' diagnostics; suite_checks' "hygiene: lints"
    case matches on them. *)
val id_undef_operand : string
val id_undef_trap : string
val id_alloc_outside_entry : string
val id_addr_not_pointer : string
val id_addrspace_mismatch : string
