(** Structured kernel eDSL with on-the-fly SSA construction.

    Kernels are written with mutable {!var}s and structured control flow
    ([if_] / [while_] / [for_]); the DSL lowers them to pruned SSA using
    the algorithm of Braun et al. (CC 2013, "Simple and Efficient
    Construction of Static Single Assignment Form"): variable reads
    introduce phi nodes lazily, blocks are sealed once all their
    predecessors are known, and trivial phis are removed recursively.

    This plays the role of Clang + mem2reg in the paper's pipeline: the
    evaluation kernels are written against this API and come out as the
    same shape of SSA CFG that HIPCC would produce.  Every function here
    operates on the {e current block} of the context and appends
    instructions in order. *)

type var
(** A mutable local variable (an abstract register, not an alloca). *)

type ctx

(** {2 Kernel construction} *)

(** [build_kernel ~name ~params body] constructs a fully-sealed,
    verified SSA function.  [body] receives the context and the
    parameter values in declaration order.  A [ret] is appended if the
    body leaves the final block unterminated. *)
val build_kernel :
  name:string ->
  params:(string * Types.ty) list ->
  (ctx -> Ssa.value list -> unit) ->
  Ssa.func

(** {2 Variables} *)

val local : ctx -> ?name:string -> Types.ty -> var
val set : ctx -> var -> Ssa.value -> unit
val get : ctx -> var -> Ssa.value

(** {2 Expressions} *)

val i32 : int -> Ssa.value
val i1 : bool -> Ssa.value
val f32 : float -> Ssa.value
val add : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val sub : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val mul : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val sdiv : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val srem : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val and_ : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val or_ : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val xor : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val shl : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val lshr : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val smin : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val smax : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val fadd : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val fsub : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val fmul : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val fdiv : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val fmin : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val fmax : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val icmp : ctx -> Op.icmp_pred -> Ssa.value -> Ssa.value -> Ssa.value
val eq : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val ne : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val slt : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val sle : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val sgt : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val sge : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val fcmp : ctx -> Op.fcmp_pred -> Ssa.value -> Ssa.value -> Ssa.value
val not_ : ctx -> Ssa.value -> Ssa.value
val select : ctx -> Ssa.value -> Ssa.value -> Ssa.value -> Ssa.value
val load : ctx -> Ssa.value -> Ssa.value
val load_f : ctx -> Ssa.value -> Ssa.value
val store : ctx -> Ssa.value -> Ssa.value -> unit
val gep : ctx -> Ssa.value -> Ssa.value -> Ssa.value
val sitofp : ctx -> Ssa.value -> Ssa.value
val fptosi : ctx -> Ssa.value -> Ssa.value
val tid : ctx -> Ssa.value
val bid : ctx -> Ssa.value
val bdim : ctx -> Ssa.value
val gdim : ctx -> Ssa.value
val sync : ctx -> unit

(** Allocate a per-block shared-memory array; hoisted to the entry block
    like LLVM allocas / CUDA [__shared__] declarations. *)
val shared_array : ctx -> int -> Ssa.value

(** {2 Structured control flow} *)

val if_ : ctx -> Ssa.value -> (unit -> unit) -> (unit -> unit) -> unit
val if_then : ctx -> Ssa.value -> (unit -> unit) -> unit

(** [while_ ctx cond body]: [cond] is evaluated in the (unsealed) loop
    header so variable reads inside it correctly become loop phis. *)
val while_ : ctx -> (unit -> Ssa.value) -> (unit -> unit) -> unit

(** Counted loop [for i = from; cmp i; i = step i]. *)
val for_ :
  ctx ->
  ?name:string ->
  from:Ssa.value ->
  cmp:(ctx -> Ssa.value -> Ssa.value) ->
  step:(ctx -> Ssa.value -> Ssa.value) ->
  (Ssa.value -> unit) ->
  unit

(** Simple ascending loop [for i = from; i < until; i += 1]. *)
val for_up :
  ctx ->
  ?name:string ->
  from:Ssa.value ->
  until:Ssa.value ->
  (Ssa.value -> unit) ->
  unit
