(** Affine abstraction of i32 values for the race checker.

    Every i32 value is abstracted as [c*tid + m*sym + k] where [tid] is
    the thread index within the block, [sym] is a designated {e uniform}
    SSA value (same for all threads of the block at any given moment —
    a kernel parameter, [block.idx], a uniform loop counter, ...) and
    [c], [m], [k] are integer constants; values that fit no such form
    are [Top].  The issue's three-way classification falls out as
    [c = 0] (uniform), [c = 1, m = 0] (tid + offset) and [Top]
    (unknown), but keeping general coefficients costs nothing and lets
    the checker reason about strided layouts like [tid*L + e].

    Uniformity is imported from {!Darm_analysis.Divergence}: any
    instruction the divergence analysis proves uniform but that fits no
    structural affine rule becomes its own symbol ([m = 1, sym = self]),
    so e.g. [n / 2] for a parameter [n] still compares equal to itself
    across threads.

    The abstraction assumes indexes do not wrap around the i32 range
    (the usual [nsw]-style assumption for address arithmetic). *)

open Darm_ir

type form = {
  c : int;  (** coefficient of [thread.idx] *)
  m : int;  (** coefficient of [sym]; 0 iff [sym = None] *)
  sym : Ssa.value option;  (** a uniform SSA value, compared with
                               {!Ssa.value_equal} *)
  k : int;  (** constant offset *)
}

type av = Form of form | Top

type t

val compute : Darm_analysis.Divergence.t -> Ssa.func -> t

(** Abstract value of any SSA value.  Constants are exact; instructions
    come from the fixpoint; non-i32 values (and [Undef]) are [Top]. *)
val value_av : t -> Ssa.value -> av

val const : int -> av

(** [Top]-absorbing addition; fails to [Top] when the two operands
    carry distinct symbols (the sum [s1 + s2] is not representable). *)
val av_add : av -> av -> av

val to_string : av -> string
