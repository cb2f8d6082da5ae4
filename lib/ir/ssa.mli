(** Core SSA data structures: values, instructions, basic blocks,
    functions and modules, plus the mutation primitives used by
    transformations.

    The representation is deliberately LLVM-like and mutable:
    instructions carry operand arrays that may reference other
    instructions directly, blocks own an ordered instruction list whose
    last element is the unique terminator, and control-flow edges live
    in the terminator's [blocks] array.  [phi] nodes pair each operand
    with the corresponding incoming block in [blocks].

    Invariants (checked by {!Verify}):
    - every reachable block ends in exactly one terminator, which is its
      last instruction;
    - [phi] nodes appear only as a prefix of a block and have exactly
      one incoming entry per CFG predecessor;
    - every instruction operand is defined by an instruction that
      dominates the use (for [phi] uses: dominates the incoming edge's
      source). *)

type value =
  | Int of int
  | Bool of bool
  | Float of float
  | Undef of Types.ty
  | Param of param
  | Instr of instr

and param = { pname : string; pty : Types.ty; pindex : int }

and instr = {
  id : int;  (** unique within a process; never reused *)
  mutable op : Op.t;
  mutable operands : value array;
  mutable blocks : block array;
      (** [phi]: incoming blocks, index-aligned with [operands];
          [br]: the destination; [condbr]: [| then; else |] *)
  mutable ty : Types.ty;
  mutable parent : block option;
}

and block = {
  bid : int;
  mutable bname : string;
  mutable instrs : instr list;  (** in execution order; last = terminator *)
  mutable bparent : func option;
}

and func = {
  fname : string;
  params : param list;
  mutable blocks_list : block list;  (** first element is the entry block *)
}

type modul = { mname : string; mutable funcs : func list }

val fresh_id : unit -> int

(** {2 Construction} *)

val mk_instr :
  ?name:string -> Op.t -> value array -> block array -> Types.ty -> instr

val mk_block : string -> block
val mk_func : string -> param list -> func
val mk_module : string -> modul

val value_ty : value -> Types.ty

(** Physical equality for instruction results (by id), structural
    equality for constants, undefs and parameters. *)
val value_equal : value -> value -> bool

(** {2 Block contents and ordering} *)

val entry_block : func -> block

(** The block's final instruction; raises [Invalid_argument] when the
    block is empty. *)
val terminator : block -> instr

val has_terminator : block -> bool
val phis : block -> instr list
val non_phis : block -> instr list

(** Body instructions: everything that is neither a [phi] nor the
    terminator. *)
val body : block -> instr list

(** [site_index b i]: [i]'s index among the non-phi instructions of
    [b]; the phis, which lead a block, count back from [-1].  [None]
    when [b] does not list [i].  Unlike [i.id] it depends on the
    function alone, so diagnostics and traps name instructions by it;
    it walks [b], so callers compute it only when they report. *)
val site_index : block -> instr -> int option

(** ["<block>#<k>"]: the name of [block] (default: [i]'s parent) and
    {!site_index} — for a load or a store, the simulator's memory-site
    id; [?] stands for a missing block or index. *)
val site : ?block:block -> instr -> string

val successors : block -> block list

val append_instr : block -> instr -> unit
val insert_before : instr -> instr -> unit
val insert_after_phis : block -> instr -> unit
val remove_instr : block -> instr -> unit
val append_block : func -> block -> unit
val remove_block : func -> block -> unit

(** {2 Iteration} *)

val iter_instrs : func -> (instr -> unit) -> unit
val fold_instrs : func -> ('a -> instr -> 'a) -> 'a -> 'a

(** {2 CFG edges} *)

(** Map from block id to predecessor blocks, recomputed on demand. *)
val predecessors : func -> (int, block list) Hashtbl.t

val preds_of : (int, block list) Hashtbl.t -> block -> block list

(** Replace every control-flow edge [src -> old_dest] with
    [src -> new_dest] in [src]'s terminator.  Phi nodes in the old and
    new destinations are {e not} adjusted; callers handle them
    explicitly. *)
val redirect_edge : block -> old_dest:block -> new_dest:block -> unit

(** {2 Phi helpers} *)

val phi_incoming : instr -> (value * block) list
val set_phi_incoming : instr -> (value * block) list -> unit
val phi_incoming_for : instr -> block -> value option

val phi_replace_incoming_block :
  block -> old_pred:block -> new_pred:block -> unit

val phi_remove_incoming : block -> pred:block -> unit

(** {2 Use replacement} *)

(** Replace every use of [old_v] as an operand anywhere in the function
    by [new_v]. *)
val replace_all_uses : func -> old_v:value -> new_v:value -> unit

(** All instructions in the function that use [v] as an operand. *)
val users : func -> value -> instr list
