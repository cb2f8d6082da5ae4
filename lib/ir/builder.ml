(** Low-level, position-based IR builder.  See the interface. *)

open Ssa

type t = {
  func : func;
  mutable cursor : block option;
}

let create (f : func) : t = { func = f; cursor = None }

(** Create a fresh block named [name], append it to the function and
    return it.  Does not move the cursor. *)
let add_block (b : t) (name : string) : block =
  let blk = mk_block name in
  append_block b.func blk;
  blk

let position_at_end (b : t) (blk : block) = b.cursor <- Some blk

let reject msg = invalid_arg ("Builder.ins: " ^ msg)

(* checked before [mk_instr], which indexes a terminator under its
   targets: a rejected branch never names an edge *)
let ins (b : t) ?ty ?(targets = [||]) (op : Op.t) (operands : value array) :
    value =
  match b.cursor with
  | None -> invalid_arg "Builder: no insertion block set"
  | Some blk ->
      let ty =
        match ty, result_ty op operands with
        | Some t, _ | None, Some t -> t
        | None, None -> Types.Void
      in
      Verify.check_instr reject op operands targets ty;
      let i = mk_instr op operands targets ty in
      append_instr blk i;
      Instr i

let i32 n : value = Int n
let i1 v : value = Bool v
let f32 x : value = Float x
