(** Two's-complement 32-bit integer semantics.

    This is the single source of truth for the machine model's integer
    arithmetic: the SIMT simulator ({!Darm_sim.Simulator}) and the
    constant folder ({!Darm_transforms.Constfold}) both evaluate
    [Op.ibinop] through {!eval}, so the compile-time folder and the
    runtime interpreter can never diverge.

    The canonical representation of an i32 value is the sign-extended
    OCaml [int] in [-2^31, 2^31 - 1].  {!to_i32} truncates an arbitrary
    OCaml int to that range (modulo 2^32, then sign-extended); {!of_i32}
    is the unsigned 32-bit view of the same bits.  All operations wrap:
    [Add]/[Sub]/[Mul] modulo 2^32, shifts mask their amount to [0, 31],
    [Shl] sign-extends its truncated result (so [1 lsl 31] is
    [-2^31], not [+2^31]), and [Ashr]/[Lshr] operate on the truncated
    32-bit value.  [Sdiv]/[Srem] signal division by zero: {!eval_exn}
    raises (the simulator traps), {!eval} returns [None] (the folder
    declines to fold). *)

let mask = 0xFFFFFFFF

(** Unsigned 32-bit view: the low 32 bits of [x] as a non-negative
    int. *)
let of_i32 (x : int) : int = x land mask

(** Canonical i32: truncate [x] to 32 bits and sign-extend. *)
let[@inline] to_i32 (x : int) : int =
  let m = x land mask in
  if m land 0x80000000 <> 0 then m - 0x100000000 else m

(** [eval_exn op x y] evaluates [op] under i32 semantics on arbitrary
    OCaml ints (operands are truncated first) and returns the canonical
    result; raises [Division_by_zero] for division or remainder by zero.
    Every case is int-typed and allocates nothing — the simulator calls
    it once per active lane, so it is inlined into the lane loops. *)
let[@inline] eval_exn (op : Op.ibinop) (x : int) (y : int) : int =
  let x = to_i32 x and y = to_i32 y in
  match op with
  | Op.Add -> to_i32 (x + y)
  | Op.Sub -> to_i32 (x - y)
  | Op.Mul ->
      (* native multiplication wraps modulo 2^63; since 2^32 divides
         2^63, truncating the wrapped product still yields the exact
         product modulo 2^32 *)
      to_i32 (x * y)
  | Op.Sdiv -> to_i32 (x / y)
  | Op.Srem -> to_i32 (x mod y)
  | Op.And -> x land y
  | Op.Or -> x lor y
  | Op.Xor -> x lxor y
  | Op.Shl -> to_i32 (x lsl (y land 31))
  | Op.Lshr -> to_i32 ((x land mask) lsr (y land 31))
  | Op.Ashr -> x asr (y land 31)
  | Op.Smin -> if x <= y then x else y
  | Op.Smax -> if x >= y then x else y

(** [eval op x y] is {!eval_exn} with division by zero reported as
    [None] — the constant folder's view, which declines to fold. *)
let eval (op : Op.ibinop) (x : int) (y : int) : int option =
  match eval_exn op x y with
  | v -> Some v
  | exception Division_by_zero -> None

(** Signed comparison on the canonical representations (inlined into
    the simulator's lane loops, like {!eval_exn}). *)
let[@inline] compare_i32 (p : Op.icmp_pred) (x : int) (y : int) : bool =
  let x = to_i32 x and y = to_i32 y in
  match p with
  | Op.Ieq -> x = y
  | Op.Ine -> x <> y
  | Op.Islt -> x < y
  | Op.Isle -> x <= y
  | Op.Isgt -> x > y
  | Op.Isge -> x >= y
