(** Textual form of the IR, in an LLVM-like syntax that {!Parser} reads
    back.

    {v
    kernel @saxpy(%x: ptr(global), %n: i32) {
    entry:
      %0 = thread.idx
      %1 = icmp slt %0, %n
      condbr %1, body, exit
    ...
    }
    v}
    A block prints as its [bname], which {!Ssa.append_block} made
    unique in the function; only instruction results are numbered. *)

type names = (int, string) Hashtbl.t  (** instr id -> printable name *)

(** Number instruction results in block order. *)
val assign_names : Ssa.func -> names

val value_str : names -> Ssa.value -> string
val instr_str : names -> Ssa.instr -> string

val func_to_string : Ssa.func -> string
val module_to_string : Ssa.modul -> string

(** Compact structural summary of the CFG: one line per block listing
    its successors — handy in debug logs and tests. *)
val cfg_summary : Ssa.func -> string
