(** Core SSA data structures and the mutators that keep the
    predecessor index, the edit count and the blocks' edit stamps
    exact.  See the interface for the invariants. *)

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
  mutable uses : use list;  (** operand slots naming it, attached or not *)
}

and use = { user : instr; slot : int }

and block = {
  bid : int;
  mutable bname : string;
  mutable instrs : instr list;  (** in execution order; last = terminator *)
  mutable bparent : func option;
  mutable targeted_by : instr list;  (** terminators targeting it *)
  mutable stamp : int;  (** layout stamp, set by [append_block] *)
  mutable edit_stamp : int;  (** [edit_count] at the block's last edit *)
}

and func = {
  fname : string;
  params : param list;
  mutable blocks_list : block list;  (** first element is the entry block *)
  mutable edit_count : int;  (** bumped by every edit made here *)
}

type modul = { mname : string; mutable funcs : func list }

(* atomic: kernel instances are built concurrently by the harness's
   domain pool, and duplicate ids within one function would corrupt
   id-keyed lookups *)
let next_id = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

(* ------------------------------------------------------------------ *)
(* Edit count and edit stamps *)

(* Every mutator below bumps the count of the function the edited block
   or instruction sits in, and stamps each block it changed with the new
   count; a detached one has no function to tell. *)
let bump_func (f : func) = f.edit_count <- f.edit_count + 1

(* Stamp [b] with its function's count; an edit bumps the count first,
   so the stamp is later than any count read before the edit. *)
let stamp (b : block) =
  match b.bparent with Some f -> b.edit_stamp <- f.edit_count | None -> ()

let bump_block (b : block) =
  match b.bparent with
  | Some f ->
      bump_func f;
      b.edit_stamp <- f.edit_count
  | None -> ()

let bump_instr (i : instr) = Option.iter bump_block i.parent

(* A terminator's source is its parent, while that block is in a
   function; detached terminators and removed blocks stay indexed (they
   may come back) but name no edge. *)
let source (t : instr) : block option =
  match t.parent with Some p when p.bparent <> None -> t.parent | _ -> None

(* An attached terminator's edges are its targets' predecessors: when
   the terminator is attached, detached, moved or retargeted, or its
   block enters or leaves the function, each target is stamped too, with
   the count the edit has just bumped.  A detached one names no edge and
   stamps nothing. *)
let stamp_targets (t : instr) =
  if Array.length t.blocks > 0 && t.op <> Op.Phi then
    match source t with Some _ -> Array.iter stamp t.blocks | None -> ()

(* ------------------------------------------------------------------ *)
(* Construction *)

(* Index [t] under each block it targets; phis name incoming blocks,
   not edges, and are never indexed. *)
let link (t : instr) =
  for k = 0 to Array.length t.blocks - 1 do
    let b = t.blocks.(k) in
    b.targeted_by <- t :: b.targeted_by
  done

let unlink (t : instr) =
  Array.iter
    (fun b -> b.targeted_by <- List.filter (fun x -> x != t) b.targeted_by)
    t.blocks

(* Index operand slot [k] of [u], which holds [v], under the
   instruction [v] names; other values have no use list. *)
let add_use (v : value) (u : instr) (k : int) =
  match v with Instr d -> d.uses <- { user = u; slot = k } :: d.uses | _ -> ()

let remove_use (v : value) (u : instr) (k : int) =
  let rec drop = function
    | [] -> []
    | x :: tl -> if x.user == u && x.slot = k then tl else x :: drop tl
  in
  match v with Instr d -> d.uses <- drop d.uses | _ -> ()

(* A slot keeps its entry when it names the same instruction as
   before; passes rewrite whole operand arrays in which most slots
   stay, so only the others move between use lists. *)
let stays (old : value) (v : value) =
  match old, v with Instr x, Instr y -> x == y | _ -> false

let relink (u : instr) (ops : value array) =
  let old = u.operands in
  let n = min (Array.length old) (Array.length ops) in
  for k = 0 to Array.length old - 1 do
    if k >= n || not (stays old.(k) ops.(k)) then remove_use old.(k) u k
  done;
  u.operands <- ops;
  for k = 0 to Array.length ops - 1 do
    if k >= n || not (stays old.(k) ops.(k)) then add_use ops.(k) u k
  done

let mk_instr op operands blocks ty =
  let i =
    { id = fresh_id (); op; operands; blocks; ty; parent = None; uses = [] }
  in
  for k = 0 to Array.length operands - 1 do
    add_use operands.(k) i k
  done;
  if op <> Op.Phi then link i;
  i

let mk_block name =
  { bid = fresh_id (); bname = name; instrs = []; bparent = None;
    targeted_by = []; stamp = 0; edit_stamp = 0 }

let mk_func name params =
  { fname = name; params; blocks_list = []; edit_count = 0 }

let mk_module name = { mname = name; funcs = [] }

let value_ty = function
  | Int _ -> Types.I32
  | Bool _ -> Types.I1
  | Float _ -> Types.F32
  | Undef t -> t
  | Param p -> p.pty
  | Instr i -> i.ty

let value_equal (a : value) (b : value) =
  match a, b with
  | Instr i, Instr j -> i.id = j.id
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Float x, Float y -> Float.equal x y
  | Undef t, Undef u -> Types.equal t u
  | Param p, Param q -> p.pindex = q.pindex && String.equal p.pname q.pname
  | (Int _ | Bool _ | Float _ | Undef _ | Param _ | Instr _), _ -> false

(* ------------------------------------------------------------------ *)
(* Block membership and ordering *)

let entry_block (f : func) =
  match f.blocks_list with
  | [] -> invalid_arg "Ssa.entry_block: function has no blocks"
  | b :: _ -> b

let terminator (b : block) : instr =
  let rec last = function
    | [] -> invalid_arg ("Ssa.terminator: empty block " ^ b.bname)
    | [ i ] -> i
    | _ :: tl -> last tl
  in
  last b.instrs

let has_terminator (b : block) =
  let rec last = function
    | [] -> false
    | [ i ] -> Op.is_terminator i.op
    | _ :: tl -> last tl
  in
  last b.instrs

let phis (b : block) = List.filter (fun i -> i.op = Op.Phi) b.instrs

let non_phis (b : block) = List.filter (fun i -> i.op <> Op.Phi) b.instrs

(** Body instructions: everything that is neither a [phi] nor the
    terminator. *)
let body (b : block) =
  List.filter (fun i -> i.op <> Op.Phi && not (Op.is_terminator i.op)) b.instrs

let site_index (b : block) (i : instr) : int option =
  List.find_index (fun x -> x == i) b.instrs
  |> Option.map (fun k -> k - List.length (phis b))

let site ?block (i : instr) : string =
  match (block, i.parent) with
  | Some b, _ | None, Some b ->
      b.bname ^ "#" ^ Option.fold ~none:"?" ~some:string_of_int (site_index b i)
  | None, None -> "?"

let successors (b : block) : block list =
  if has_terminator b then Array.to_list (terminator b).blocks else []

(** Append [i] at the end of [b] (after any existing instructions).
    The caller must maintain the terminator-last invariant. *)
let append_instr (b : block) (i : instr) =
  i.parent <- Some b;
  b.instrs <- b.instrs @ [ i ];
  bump_block b;
  stamp_targets i

(** Insert [i] at the front of [b]. *)
let prepend_instr (b : block) (i : instr) =
  i.parent <- Some b;
  b.instrs <- i :: b.instrs;
  bump_block b;
  stamp_targets i

(** Insert [i] immediately before [anchor] in its block. *)
let insert_before (anchor : instr) (i : instr) =
  match anchor.parent with
  | None -> invalid_arg "Ssa.insert_before: anchor is detached"
  | Some b ->
      i.parent <- Some b;
      let rec go = function
        | [] -> invalid_arg "Ssa.insert_before: anchor not in its block"
        | x :: tl -> if x.id = anchor.id then i :: x :: tl else x :: go tl
      in
      b.instrs <- go b.instrs;
      bump_block b;
      stamp_targets i

(** Insert [i] after the last [phi] of [b] (i.e. as the first non-phi);
    phis form a prefix, so only that prefix is rebuilt. *)
let insert_after_phis (b : block) (i : instr) =
  let rec after_phis = function
    | x :: tl when x.op = Op.Phi -> x :: after_phis tl
    | rest -> i :: rest
  in
  i.parent <- Some b;
  b.instrs <- after_phis b.instrs;
  bump_block b;
  stamp_targets i

(* ids are unique, so the first match is the only one *)
let remove_instr (b : block) (i : instr) =
  let rec drop = function
    | [] -> []
    | x :: tl -> if x.id = i.id then tl else x :: drop tl
  in
  b.instrs <- drop b.instrs;
  bump_block b;
  stamp_targets i;
  i.parent <- None

(** Make [instrs] the whole of [b], in order, each parented to [b]. *)
let set_instrs (b : block) (instrs : instr list) =
  let old = b.instrs in
  List.iter (fun i -> i.parent <- Some b) instrs;
  b.instrs <- instrs;
  bump_block b;
  (* a terminator that left or entered [b] moved its edges *)
  List.iter stamp_targets old;
  List.iter stamp_targets instrs

let append_block (f : func) (b : block) =
  let rec append last = function
    | [] ->
        b.stamp <- last + 1;
        [ b ]
    | x :: tl -> x :: append x.stamp tl
  in
  b.bparent <- Some f;
  f.blocks_list <- append (-1) f.blocks_list;
  bump_block b;
  List.iter stamp_targets b.instrs

let remove_block (f : func) (b : block) =
  f.blocks_list <- List.filter (fun x -> x.bid <> b.bid) f.blocks_list;
  bump_block b;
  List.iter stamp_targets b.instrs;
  b.bparent <- None

(* ------------------------------------------------------------------ *)
(* Iteration *)

let iter_instrs (f : func) (g : instr -> unit) =
  List.iter (fun b -> List.iter g b.instrs) f.blocks_list

let fold_instrs (f : func) (g : 'a -> instr -> 'a) (init : 'a) =
  List.fold_left
    (fun acc b -> List.fold_left g acc b.instrs)
    init f.blocks_list

(* ------------------------------------------------------------------ *)
(* CFG edges *)

let preds (b : block) : block list =
  match b.targeted_by with
  | [ t ] -> Option.to_list (source t)
  | ts ->
      List.filter_map source ts
      |> List.sort_uniq (fun x y ->
             let c = compare y.stamp x.stamp in
             if c <> 0 then c else compare y.bid x.bid)

let retarget (t : instr) (targets : block array) =
  assert (t.op <> Op.Phi);
  bump_instr t;
  stamp_targets t;
  unlink t;
  t.blocks <- targets;
  link t;
  stamp_targets t

let fold_to_br (t : instr) (dest : block) =
  t.op <- Op.Br;
  relink t [||];
  retarget t [| dest |]

(** Replace every control-flow edge [src -> old_dest] with
    [src -> new_dest] in [src]'s terminator.  Phi nodes in [old_dest] and
    [new_dest] are {e not} adjusted; callers handle them explicitly. *)
let redirect_edge (src : block) ~(old_dest : block) ~(new_dest : block) =
  let t = terminator src in
  retarget t
    (Array.map (fun b -> if b.bid = old_dest.bid then new_dest else b) t.blocks)

(* ------------------------------------------------------------------ *)
(* Phi helpers *)

(** Incoming (value, block) pairs of a [phi]. *)
let phi_incoming (i : instr) : (value * block) list =
  assert (i.op = Op.Phi);
  List.combine (Array.to_list i.operands) (Array.to_list i.blocks)

let set_phi_incoming (i : instr) (pairs : (value * block) list) =
  assert (i.op = Op.Phi);
  relink i (Array.of_list (List.map fst pairs));
  i.blocks <- Array.of_list (List.map snd pairs);
  bump_instr i

let phi_add_incoming (i : instr) (v : value) (pred : block) =
  assert (i.op = Op.Phi);
  relink i (Array.append i.operands [| v |]);
  i.blocks <- Array.append i.blocks [| pred |];
  bump_instr i

let phi_incoming_for (i : instr) (pred : block) : value option =
  let rec find = function
    | [] -> None
    | (v, b) :: tl -> if b.bid = pred.bid then Some v else find tl
  in
  find (phi_incoming i)

(** Rename the incoming block [old_pred] to [new_pred] in every phi of
    [b]. *)
let phi_replace_incoming_block (b : block) ~(old_pred : block)
    ~(new_pred : block) =
  List.iter
    (fun p ->
      p.blocks <-
        Array.map
          (fun blk -> if blk.bid = old_pred.bid then new_pred else blk)
          p.blocks;
      bump_instr p)
    (phis b)

(** Drop the incoming entries coming from [pred] in every phi of [b];
    a phi without one is left as it is. *)
let phi_remove_incoming (b : block) ~(pred : block) =
  List.iter
    (fun p ->
      if Array.exists (fun blk -> blk.bid = pred.bid) p.blocks then
        set_phi_incoming p
          (List.filter (fun (_, blk) -> blk.bid <> pred.bid) (phi_incoming p)))
    (phis b)

(* ------------------------------------------------------------------ *)
(* Result types and operands *)

let result_ty (op : Op.t) (operands : value array) : Types.ty option =
  match op with
  | Op.Ibin _ | Op.Fptosi | Op.Thread_idx | Op.Block_idx | Op.Block_dim
  | Op.Grid_dim ->
      Some Types.I32
  | Op.Fbin _ | Op.Sitofp -> Some Types.F32
  | Op.Icmp _ | Op.Fcmp _ | Op.Not -> Some Types.I1
  | Op.Alloc_shared _ -> Some (Types.Ptr Types.Shared)
  | Op.Addrspace_cast -> Some (Types.Ptr Types.Flat)
  | Op.Store | Op.Br | Op.Condbr | Op.Ret | Op.Syncthreads -> Some Types.Void
  | Op.Select when Array.length operands = 3 -> (
      match value_ty operands.(1), value_ty operands.(2) with
      | Types.Ptr a, Types.Ptr b -> Some (Types.Ptr (Types.join_ptr a b))
      | t, _ -> Some t)
  | Op.Gep when Array.length operands > 0 -> (
      match value_ty operands.(0) with
      | Types.Ptr _ as t -> Some t
      | Types.I1 | Types.I32 | Types.F32 | Types.Void -> None)
  | Op.Select | Op.Gep | Op.Phi | Op.Load -> None

let in_function (i : instr) =
  match i.parent with Some { bparent = Some _; _ } -> true | _ -> false

(* A user counts once, at the first slot that names [d]. *)
let first_slot (d : instr) (u : use) =
  let rec earlier k =
    k < u.slot
    && ((match u.user.operands.(k) with Instr x -> x == d | _ -> false)
       || earlier (k + 1))
  in
  not (earlier 0)

let users (d : instr) : instr list =
  List.filter_map
    (fun u ->
      if in_function u.user && first_slot d u then Some u.user else None)
    d.uses

(* Give [i] the type the rule derives; true when that changed it. *)
let rederive (i : instr) : bool =
  match result_ty i.op i.operands with
  | Some t when not (Types.equal t i.ty) ->
      i.ty <- t;
      true
  | Some _ | None -> false

(* The types of [retyped] changed: re-derive their users' types, and
   the users' of each one whose type changes in turn.  Every user's
   operand types changed with them (a load's or a store's latency reads
   its pointer's address space), so every user's block is stamped. *)
let rec retype_users (retyped : instr list) =
  match retyped with
  | [] -> ()
  | i :: rest ->
      let us = users i in
      List.iter bump_instr us;
      retype_users (List.filter rederive us @ rest)

(* [i]'s operands were edited *)
let operands_edited (i : instr) =
  bump_instr i;
  if rederive i then retype_users [ i ]

let set_operands (i : instr) (operands : value array) =
  relink i operands;
  operands_edited i

let set_operand (i : instr) (k : int) (v : value) =
  let old = i.operands.(k) in
  i.operands.(k) <- v;
  if not (stays old v) then begin
    remove_use old i k;
    add_use v i k
  end;
  operands_edited i

let set_ty (i : instr) (t : Types.ty) =
  (match i.op with
  | Op.Phi | Op.Load -> ()
  | op -> invalid_arg ("Ssa.set_ty: the rule types " ^ Op.to_string op));
  if not (Types.equal i.ty t) then begin
    i.ty <- t;
    bump_instr i;
    retype_users [ i ]
  end

let replace_uses (d : instr) (v : value) ~(where : instr -> int -> bool) =
  let moved, kept =
    List.partition (fun u -> in_function u.user && where u.user u.slot) d.uses
  in
  d.uses <- kept;
  List.rev moved
  |> List.filter_map (fun { user; slot } ->
         user.operands.(slot) <- v;
         add_use v user slot;
         bump_instr user;
         if rederive user then Some user else None)
  |> retype_users

let replace_all_uses (d : instr) (v : value) =
  replace_uses d v ~where:(fun _ _ -> true)
