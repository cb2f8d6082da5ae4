(** Core SSA data structures: values, instructions, basic blocks, functions
    and modules, plus the mutation primitives used by transformations.

    The representation is deliberately LLVM-like and mutable: instructions
    carry operand arrays that may reference other instructions directly,
    blocks own an ordered instruction list whose last element is the unique
    terminator, and control-flow edges live in the terminator's [blocks]
    array.  [phi] nodes pair each operand with the corresponding incoming
    block in [blocks].

    Invariants (checked by {!Verify}):
    - every reachable block ends in exactly one terminator, which is its
      last instruction;
    - [phi] nodes appear only as a prefix of a block and have exactly one
      incoming entry per CFG predecessor;
    - every instruction operand is defined by an instruction that dominates
      the use (for [phi] uses: dominates the incoming edge's source). *)

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

(* atomic: kernel instances are built concurrently by the harness's
   domain pool, and duplicate ids within one function would corrupt
   id-keyed lookups *)
let next_id = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

(* ------------------------------------------------------------------ *)
(* Construction *)

let mk_instr ?(name : string option) op operands blocks ty =
  ignore name;
  { id = fresh_id (); op; operands; blocks; ty; parent = None }

let mk_block name =
  { bid = fresh_id (); bname = name; instrs = []; bparent = None }

let mk_func name params = { fname = name; params; blocks_list = [] }

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
  match List.rev b.instrs with
  | i :: _ -> Op.is_terminator i.op
  | [] -> false

let phis (b : block) = List.filter (fun i -> i.op = Op.Phi) b.instrs

let non_phis (b : block) = List.filter (fun i -> i.op <> Op.Phi) b.instrs

(** Body instructions: everything that is neither a [phi] nor the
    terminator. *)
let body (b : block) =
  List.filter (fun i -> i.op <> Op.Phi && not (Op.is_terminator i.op)) b.instrs

let successors (b : block) : block list =
  if has_terminator b then Array.to_list (terminator b).blocks else []

(** Append [i] at the end of [b] (after any existing instructions).
    The caller must maintain the terminator-last invariant. *)
let append_instr (b : block) (i : instr) =
  i.parent <- Some b;
  b.instrs <- b.instrs @ [ i ]

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
      b.instrs <- go b.instrs

(** Insert [i] after the last [phi] of [b] (i.e. as the first non-phi). *)
let insert_after_phis (b : block) (i : instr) =
  i.parent <- Some b;
  let ps, rest = List.partition (fun x -> x.op = Op.Phi) b.instrs in
  b.instrs <- ps @ (i :: rest)

let remove_instr (b : block) (i : instr) =
  b.instrs <- List.filter (fun x -> x.id <> i.id) b.instrs;
  i.parent <- None

let append_block (f : func) (b : block) =
  b.bparent <- Some f;
  f.blocks_list <- f.blocks_list @ [ b ]

let remove_block (f : func) (b : block) =
  f.blocks_list <- List.filter (fun x -> x.bid <> b.bid) f.blocks_list;
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
(* CFG edge bookkeeping *)

(** Map from block id to predecessor blocks, recomputed on demand. *)
let predecessors (f : func) : (int, block list) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  List.iter (fun b -> Hashtbl.replace tbl b.bid []) f.blocks_list;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find tbl s.bid with Not_found -> [] in
          if not (List.exists (fun p -> p.bid = b.bid) cur) then
            Hashtbl.replace tbl s.bid (b :: cur))
        (successors b))
    f.blocks_list;
  tbl

let preds_of tbl (b : block) = try Hashtbl.find tbl b.bid with Not_found -> []

(** Replace every control-flow edge [src -> old_dest] with
    [src -> new_dest] in [src]'s terminator.  Phi nodes in [old_dest] and
    [new_dest] are {e not} adjusted; callers handle them explicitly. *)
let redirect_edge (src : block) ~(old_dest : block) ~(new_dest : block) =
  let t = terminator src in
  t.blocks <-
    Array.map (fun b -> if b.bid = old_dest.bid then new_dest else b) t.blocks

(* ------------------------------------------------------------------ *)
(* Phi helpers *)

(** Incoming (value, block) pairs of a [phi]. *)
let phi_incoming (i : instr) : (value * block) list =
  assert (i.op = Op.Phi);
  List.combine (Array.to_list i.operands) (Array.to_list i.blocks)

let set_phi_incoming (i : instr) (pairs : (value * block) list) =
  assert (i.op = Op.Phi);
  i.operands <- Array.of_list (List.map fst pairs);
  i.blocks <- Array.of_list (List.map snd pairs)

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
          p.blocks)
    (phis b)

(** Drop the incoming entries coming from [pred] in every phi of [b]. *)
let phi_remove_incoming (b : block) ~(pred : block) =
  List.iter
    (fun p ->
      set_phi_incoming p
        (List.filter (fun (_, blk) -> blk.bid <> pred.bid) (phi_incoming p)))
    (phis b)

(* ------------------------------------------------------------------ *)
(* Use replacement *)

(** Replace every use of [old_v] as an operand anywhere in [f] by
    [new_v]. *)
let replace_all_uses (f : func) ~(old_v : value) ~(new_v : value) =
  iter_instrs f (fun i ->
      i.operands <-
        Array.map (fun v -> if value_equal v old_v then new_v else v)
          i.operands)

(** All instructions in [f] that use [v] as an operand. *)
let users (f : func) (v : value) : instr list =
  fold_instrs f
    (fun acc i ->
      if Array.exists (fun o -> value_equal o v) i.operands then i :: acc
      else acc)
    []
  |> List.rev
