(** Low-level, position-based IR builder.

    A builder holds a current insertion block; each [ins_*] function
    appends one instruction there and returns its result {!Ssa.value}.
    Types are inferred and checked at construction time, so malformed
    instructions fail fast instead of surfacing later in the verifier. *)

open Ssa

type t = {
  func : func;
  mutable cursor : block option;
}

let create (f : func) : t = { func = f; cursor = None }

let func (b : t) = b.func

(** Create a fresh block named [name] (uniquified), append it to the
    function and return it.  Does not move the cursor. *)
let add_block (b : t) (name : string) : block =
  let blk = mk_block name in
  append_block b.func blk;
  blk

let position_at_end (b : t) (blk : block) = b.cursor <- Some blk

let insertion_block (b : t) : block =
  match b.cursor with
  | Some blk -> blk
  | None -> invalid_arg "Builder: no insertion block set"

let insert (b : t) (i : instr) : value =
  append_instr (insertion_block b) i;
  Instr i

let ins_ibin (b : t) (op : Op.ibinop) (x : value) (y : value) : value =
  if not (Types.equal (value_ty x) Types.I32 && Types.equal (value_ty y) Types.I32)
  then invalid_arg ("Builder.ins_ibin: operands must be i32 for "
                    ^ Op.ibinop_to_string op);
  insert b (mk_instr (Op.Ibin op) [| x; y |] [||] Types.I32)

let ins_fbin (b : t) (op : Op.fbinop) (x : value) (y : value) : value =
  if not (Types.equal (value_ty x) Types.F32 && Types.equal (value_ty y) Types.F32)
  then invalid_arg "Builder.ins_fbin: operands must be f32";
  insert b (mk_instr (Op.Fbin op) [| x; y |] [||] Types.F32)

let ins_icmp (b : t) (p : Op.icmp_pred) (x : value) (y : value) : value =
  if not (Types.equal (value_ty x) (value_ty y)) then
    invalid_arg "Builder.ins_icmp: operand types differ";
  insert b (mk_instr (Op.Icmp p) [| x; y |] [||] Types.I1)

let ins_fcmp (b : t) (p : Op.fcmp_pred) (x : value) (y : value) : value =
  insert b (mk_instr (Op.Fcmp p) [| x; y |] [||] Types.I1)

let ins_not (b : t) (x : value) : value =
  if not (Types.equal (value_ty x) Types.I1) then
    invalid_arg "Builder.ins_not: operand must be i1";
  insert b (mk_instr Op.Not [| x |] [||] Types.I1)

let ins_select (b : t) (c : value) (tv : value) (fv : value) : value =
  if not (Types.equal (value_ty c) Types.I1) then
    invalid_arg "Builder.ins_select: condition must be i1";
  let ty =
    match value_ty tv, value_ty fv with
    | Types.Ptr a, Types.Ptr b2 -> Types.Ptr (Types.join_ptr a b2)
    | ta, tb when Types.equal ta tb -> ta
    | _ -> invalid_arg "Builder.ins_select: arm types incompatible"
  in
  insert b (mk_instr Op.Select [| c; tv; fv |] [||] ty)

let ins_load (b : t) (ptr : value) : value =
  (match value_ty ptr with
  | Types.Ptr _ -> ()
  | _ -> invalid_arg "Builder.ins_load: operand must be a pointer");
  insert b (mk_instr Op.Load [| ptr |] [||] Types.I32)

(** Load producing a float; address spaces are untyped w.r.t. element
    type, the kernel author chooses the view. *)
let ins_load_f (b : t) (ptr : value) : value =
  (match value_ty ptr with
  | Types.Ptr _ -> ()
  | _ -> invalid_arg "Builder.ins_load_f: operand must be a pointer");
  insert b (mk_instr Op.Load [| ptr |] [||] Types.F32)

let ins_store (b : t) (v : value) (ptr : value) : value =
  (match value_ty ptr with
  | Types.Ptr _ -> ()
  | _ -> invalid_arg "Builder.ins_store: destination must be a pointer");
  insert b (mk_instr Op.Store [| v; ptr |] [||] Types.Void)

let ins_gep (b : t) (ptr : value) (idx : value) : value =
  let space =
    match value_ty ptr with
    | Types.Ptr a -> a
    | _ -> invalid_arg "Builder.ins_gep: base must be a pointer"
  in
  if not (Types.equal (value_ty idx) Types.I32) then
    invalid_arg "Builder.ins_gep: index must be i32";
  insert b (mk_instr Op.Gep [| ptr; idx |] [||] (Types.Ptr space))

let ins_br (b : t) (dest : block) : unit =
  ignore (insert b (mk_instr Op.Br [||] [| dest |] Types.Void))

let ins_condbr (b : t) (c : value) (t_dest : block) (f_dest : block) : unit =
  if not (Types.equal (value_ty c) Types.I1) then
    invalid_arg "Builder.ins_condbr: condition must be i1";
  ignore (insert b (mk_instr Op.Condbr [| c |] [| t_dest; f_dest |] Types.Void))

let ins_ret (b : t) : unit = ignore (insert b (mk_instr Op.Ret [||] [||] Types.Void))

let ins_thread_idx (b : t) : value =
  insert b (mk_instr Op.Thread_idx [||] [||] Types.I32)

let ins_block_idx (b : t) : value =
  insert b (mk_instr Op.Block_idx [||] [||] Types.I32)

let ins_block_dim (b : t) : value =
  insert b (mk_instr Op.Block_dim [||] [||] Types.I32)

let ins_grid_dim (b : t) : value =
  insert b (mk_instr Op.Grid_dim [||] [||] Types.I32)

let ins_syncthreads (b : t) : unit =
  ignore (insert b (mk_instr Op.Syncthreads [||] [||] Types.Void))

let ins_alloc_shared (b : t) (n : int) : value =
  if n <= 0 then invalid_arg "Builder.ins_alloc_shared: size must be positive";
  insert b (mk_instr (Op.Alloc_shared n) [||] [||] (Types.Ptr Types.Shared))

let ins_sitofp (b : t) (x : value) : value =
  insert b (mk_instr Op.Sitofp [| x |] [||] Types.F32)

let ins_fptosi (b : t) (x : value) : value =
  insert b (mk_instr Op.Fptosi [| x |] [||] Types.I32)

(* Convenience arithmetic wrappers *)

let add b x y = ins_ibin b Op.Add x y
let sub b x y = ins_ibin b Op.Sub x y
let mul b x y = ins_ibin b Op.Mul x y
let sdiv b x y = ins_ibin b Op.Sdiv x y
let srem b x y = ins_ibin b Op.Srem x y
let and_ b x y = ins_ibin b Op.And x y
let or_ b x y = ins_ibin b Op.Or x y
let xor b x y = ins_ibin b Op.Xor x y
let shl b x y = ins_ibin b Op.Shl x y
let lshr b x y = ins_ibin b Op.Lshr x y
let i32 n : value = Int n
let i1 v : value = Bool v
let f32 x : value = Float x
