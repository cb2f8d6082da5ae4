(** Two's-complement 32-bit integer semantics, shared between the
    constant folder and the SIMT simulator so the two can never
    diverge.  The canonical representation of an i32 value is the
    sign-extended OCaml [int] in [-2^31, 2^31 - 1]. *)

(** Unsigned 32-bit view: the low 32 bits of the argument.  Nothing
    in the library calls it; the i32 suite's "to_i32/of_i32 round trip"
    case does. *)
val of_i32 : int -> int

(** Canonical i32: truncate to 32 bits and sign-extend. *)
val to_i32 : int -> int

(** Evaluate an integer binary operation under i32 semantics: operands
    are truncated, [Add]/[Sub]/[Mul] wrap modulo 2^32, shift amounts
    are masked to [0, 31], [Shl] sign-extends its truncated result,
    [Ashr]/[Lshr] operate on the truncated 32-bit value.  Raises
    [Division_by_zero] for division or remainder by zero; allocates
    nothing. *)
val eval_exn : Op.ibinop -> int -> int -> int

(** {!eval_exn} with division or remainder by zero returned as
    [None]. *)
val eval : Op.ibinop -> int -> int -> int option

(** Signed i32 comparison (operands truncated first). *)
val compare_i32 : Op.icmp_pred -> int -> int -> bool
