(** Core SSA data structures: values, instructions, basic blocks,
    functions and modules, plus the mutation primitives used by
    transformations.

    The representation is deliberately LLVM-like and mutable:
    instructions carry operand arrays that may reference other
    instructions directly, blocks own an ordered instruction list whose
    last element is the unique terminator, and control-flow edges live
    in the terminator's [blocks] array.  [phi] nodes pair each operand
    with the corresponding incoming block in [blocks].

    As in LLVM, where a block's predecessors are the terminators in its
    use list, each block indexes the terminators that target it
    ([targeted_by]), so {!preds} costs what the block's in-edges cost
    and no pass rebuilds a table.  Def-use edges are kept the same way:
    each instruction lists the operand slots that name it ([uses], one
    entry per slot), so {!users} and {!replace_all_uses} cost what the
    value's uses cost.  The mutators below move only the slots whose
    value changes.  As with [targeted_by], a detached user stays listed
    (it may come back) and the readers count only users that sit in a
    function.

    This module is the one writer of every IR field an analysis reads:
    a block's [instrs] and [targeted_by], an instruction's [op],
    [operands] (whole array or one element), [blocks], [parent], [ty]
    and [uses], and a function's [blocks_list]; and of each block's
    [edit_stamp].  Every mutator here
    that edits a block or instruction sitting in a function bumps that
    function's [edit_count], so a result computed at one count is
    current for as long as the count stays the same; a bump drops the
    function's analysis cache ({!cached}).  Code elsewhere
    that assigned one of these fields would leave the predecessor index
    or a use list stale, which {!Verify} reports, or a cached analysis
    stale, which nothing would; [scripts/ci.sh] rejects such an
    assignment.

    {b Edit stamps.}  Each block also carries an [edit_stamp]: the
    function's [edit_count] right after the block's last edit, so a
    block whose stamp is at most a count read earlier is unchanged since
    that read.  A mutator that bumps the count stamps every block in the
    function whose readable state it changed: the block's instructions
    (added, removed, reordered), their operands, incoming blocks and
    types, its terminator's targets, and its predecessor set.  So
    attaching, detaching, moving or retargeting an attached terminator,
    and {!append_block} or {!remove_block} of its block, also stamp the
    blocks that terminator targets; a detached terminator names no edge
    and stamps nothing.  A type change also stamps the blocks of the
    retyped value's users, whose operand types changed with it (the
    latency of a load or a store reads its pointer's address space).  A
    block that leaves the function keeps its stamp, and {!append_block}
    stamps it when it comes back.  {!Darm_core.Pass} keeps a region
    search while the blocks it read are clean.

    Invariants (checked by {!Verify}, but the first, which
    {!append_block} keeps):
    - no two blocks a function ever held share a [bname]: it is the
      label the printer prints, and the id the simulator's counters,
      the meld records and every diagnostic give the block;
    - every instruction but a [phi] or a [load] has the type
      {!result_ty} derives;
    - every reachable block ends in exactly one terminator, which is its
      last instruction;
    - {!preds} agrees, in order, with a rebuild from the terminators;
    - each instruction's [uses] lists every operand slot of the
      function that names it, once, and no slot that names another
      value;
    - [phi] nodes appear only as a prefix of a block and have exactly
      one incoming entry per CFG predecessor;
    - every instruction operand is defined by an instruction that
      dominates the use (for [phi] uses: dominates the incoming edge's
      source). *)

(** A result cached on a function by {!cached}, extended by each owner
    with private constructors: {!Dom}'s trees, {!Verify}'s pass mark,
    [Darm_analysis.Manager]'s reachable walk and divergence. *)
type fact = ..

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
      (** {!result_ty} of [op] and [operands], or stated for a [phi] or
          a [load]; written only by this module *)
  mutable parent : block option;
  mutable uses : use list;
      (** the operand slots that name this instruction, attached or
          not, one entry per slot; written only by this module *)
}

(** Slot [slot] of [user]'s operands. *)
and use = { user : instr; slot : int }

and block = {
  bid : int;
  mutable bname : string;
      (** unique in the function once {!append_block} named the block,
          and never given to another; written only by this module *)
  mutable instrs : instr list;  (** in execution order; last = terminator *)
  mutable bparent : func option;
  mutable targeted_by : instr list;
      (** the terminators whose [blocks] name this block, attached or
          not; written only by this module *)
  mutable stamp : int;
      (** layout stamp: larger for a block appended later to the same
          function; set by {!append_block} *)
  mutable edit_stamp : int;
      (** edit stamp: the function's [edit_count] right after the last
          edit that changed what a region search can read of this block
          (see "Edit stamps" above); written only by this module *)
}

and func = {
  fname : string;
  params : param list;
  mutable blocks_list : block list;  (** first element is the entry block *)
  mutable edit_count : int;
      (** edits made to the function so far, by this module's mutators;
          only ever grows *)
  mutable facts : fact list;
      (** results computed since the last edit; written only here *)
  mutable fact_counts : fact_count list;
      (** per kind, results computed ({!computed}) and served so far *)
  block_names : (string, int) Hashtbl.t;
      (** each name {!append_block} gave, to the next [k] it tries for
          [name.k]; never shrinks; written only by this module *)
}

and fact_count = { kind : string; mutable computes : int; mutable reuses : int }

type modul = { mname : string; mutable funcs : func list }

(** The next instruction or block id.  {!mk_instr} and {!mk_block}
    draw from it; the cfg-index suite's "pass output ignores the SSA id
    offset" case burns ids with it. *)
val fresh_id : unit -> int

(** {2 Analysis cache}

    [cached f ~kind find ~keep compute]: the first of [f]'s facts that
    [find] maps to [Some v], counted as a reuse of [kind]; otherwise
    [compute ()], kept as the fact [keep] makes of it, if any.  Only one
    domain may use a function at a time: a query writes its cache. *)
val cached :
  func ->
  kind:string ->
  (fact -> 'a option) ->
  keep:('a -> fact option) ->
  (unit -> 'a) ->
  'a

(** Counts a compute of [kind] over [f]; each analysis counts its own
    runs, so a result built outside the cache counts too. *)
val computed : func -> kind:string -> unit

(** {2 Construction} *)

(** [mk_instr op operands blocks ty] takes [ty] as given: a producer
    that means the instruction to verify passes the {!result_ty} of
    [op] and [operands] where the rule derives one. *)
val mk_instr : Op.t -> value array -> block array -> Types.ty -> instr

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

(** ["<block>#<k>"], the one formatter of the id of a block's [k]th
    non-phi — for a load or a store, the simulator's memory-site id;
    [?] stands for a missing index. *)
val site_id : block -> int option -> string

(** {!site_id} of [i] in [block] (default: [i]'s parent), or ["?"]. *)
val site : ?block:block -> instr -> string

val successors : block -> block list

val append_instr : block -> instr -> unit
val prepend_instr : block -> instr -> unit
val insert_before : instr -> instr -> unit
val insert_after_phis : block -> instr -> unit
val remove_instr : block -> instr -> unit

(** [set_instrs b l] makes [l] the whole instruction list of [b],
    parenting each to [b]; an instruction moved in from another block
    must leave that block's list first (or with it, by another
    [set_instrs]). *)
val set_instrs : block -> instr list -> unit

(** Append a block at the end of the function's layout, stamp it one
    past the last block and name it: its [bname] ([bb] for [""]) if no
    block of the function had it, else the first such free [bname.k]. *)
val append_block : func -> block -> unit

val remove_block : func -> block -> unit

(** {2 Iteration} *)

val iter_instrs : func -> (instr -> unit) -> unit
val fold_instrs : func -> ('a -> instr -> 'a) -> 'a -> 'a

(** {2 CFG edges} *)

(** The predecessors of a block, read from its index: the parent of
    each terminator that targets it, counted once, when that parent is
    in a function.  Highest layout position first (descending
    [stamp]), the order phi incoming lists are threaded in.  Costs
    O(in-edges), plus a sort when there are several. *)
val preds : block -> block list

(** [retarget t targets] makes [targets] the branch destinations of the
    non-phi instruction [t] and re-indexes it; [targets] must match
    [t]'s [op] (one for [br], two for [condbr]). *)
val retarget : instr -> block array -> unit

(** [fold_to_br t dest] turns the terminator [t] into [br dest]; phis
    of a destination it no longer reaches are the caller's to fix. *)
val fold_to_br : instr -> block -> unit

(** Replace every control-flow edge [src -> old_dest] with
    [src -> new_dest] in [src]'s terminator.  Phi nodes in the old and
    new destinations are {e not} adjusted; callers handle them
    explicitly. *)
val redirect_edge : block -> old_dest:block -> new_dest:block -> unit

(** {2 Phi helpers} *)

val phi_incoming : instr -> (value * block) list
val set_phi_incoming : instr -> (value * block) list -> unit

(** Append one incoming [(value, block)] pair to a [phi]. *)
val phi_add_incoming : instr -> value -> block -> unit

val phi_incoming_for : instr -> block -> value option

val phi_replace_incoming_block :
  block -> old_pred:block -> new_pred:block -> unit

val phi_remove_incoming : block -> pred:block -> unit

(** {2 Result types and operands}

    Every instruction but a [phi] or a [load] has the type
    {!result_ty} derives from its opcode and operands; the printer
    omits it and the parser derives it back, so the mutators below
    keep it current, and keep the use lists exact.  An edit that
    changes an instruction's type re-derives its users' types too,
    through {!users}, for as long as types keep changing. *)

(** The one type rule: [result_ty op operands] is the result type of
    [op] over [operands] — [i32] for integer arithmetic, the thread and
    grid intrinsics and [fptosi]; [f32] for float arithmetic and
    [sitofp]; [i1] for comparisons and [not]; [ptr(shared)] for
    [alloc.shared]; [ptr(flat)] for [addrspace.cast]; [void] for
    stores, barriers and terminators; a [gep]'s base type; a
    [select]'s first arm's type, or the join of two pointer arms
    ({!Types.join_ptr}).  [None] for a [phi] or a [load], whose type the
    writer states, for a [select] without exactly three operands and
    for a [gep] without a pointer base.  Total on any arity. *)
val result_ty : Op.t -> value array -> Types.ty option

(** [set_operands i ops] makes [ops] [i]'s operands and re-derives its
    type. *)
val set_operands : instr -> value array -> unit

(** [set_operand i k v] replaces [i]'s [k]th operand and re-derives its
    type. *)
val set_operand : instr -> int -> value -> unit

(** [set_ty i t] states the type of the [phi] or [load] [i] (raises
    [Invalid_argument] for any other opcode) and re-derives its users'
    types when it changes. *)
val set_ty : instr -> Types.ty -> unit

(** {2 Def-use} *)

(** [replace_uses d v ~where] makes each operand slot [k] of a user
    [u] that names [d] name [v] instead, where [u] sits in a function
    and [where u k] holds, re-deriving the type of each instruction
    edited.  Costs what [d]'s use list costs. *)
val replace_uses : instr -> value -> where:(instr -> int -> bool) -> unit

(** [replace_uses] in every slot. *)
val replace_all_uses : instr -> value -> unit

(** The instructions sitting in a function that use [d] as an operand,
    each once, read from [d]'s use list.  Their order is not part of
    the contract. *)
val users : instr -> instr list
