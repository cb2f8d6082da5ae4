(** Structured kernel eDSL with on-the-fly SSA construction.

    Kernels are written with mutable [var]s and structured control flow
    ([if_] / [while_] / [for_]); the DSL lowers them to pruned SSA using
    the algorithm of Braun et al. (CC 2013, "Simple and Efficient
    Construction of Static Single Assignment Form"): variable reads
    introduce phi nodes lazily, blocks are sealed once all their
    predecessors are known, and trivial phis are removed recursively.

    This plays the role of Clang + mem2reg in the paper's pipeline: the
    evaluation kernels (bitonic sort, LUD, ...) are written against this
    API and come out as the same shape of SSA CFG that HIPCC would
    produce. *)

open Ssa

type var = { vid : int; vty : Types.ty; vname : string }

type ctx = {
  func : func;
  builder : Builder.t;
  mutable cur : block;
  mutable terminated : bool;
  sealed : (int, unit) Hashtbl.t;  (** block id -> sealed *)
  current_def : (int * int, value) Hashtbl.t;  (** (var, block) -> value *)
  incomplete : (int, (var * instr) list) Hashtbl.t;
      (** block id -> phis awaiting operands *)
  forward : (int, value) Hashtbl.t;
      (** removed trivial phi id -> its replacement, which may itself
          have been removed since; [current_def] and the kernel body
          may still hold a removed phi *)
  mutable var_count : int;
}

(* ------------------------------------------------------------------ *)
(* Braun et al. SSA construction

   Linear in the size of the kernel: a block's predecessors come from
   the index [Ssa] keeps as branches are emitted (highest layout
   position first, which is highest block id first here), and a removed
   trivial phi's uses are rewritten through its use list.  A value read
   before the removal may still name the phi, so reads of [current_def]
   and the operands of each new instruction resolve through the
   forwarding table. *)

let rec resolve ctx (v : value) : value =
  match v with
  | Instr i when i.op = Op.Phi -> (
      match Hashtbl.find_opt ctx.forward i.id with
      | None -> v
      | Some r ->
          let r' = resolve ctx r in
          if r' != r then Hashtbl.replace ctx.forward i.id r';
          r')
  | _ -> v

let rec live ctx (operands : value array) k =
  k >= Array.length operands
  || (resolve ctx operands.(k) == operands.(k) && live ctx operands (k + 1))

(* The operands of a new instruction, each resolved; the array itself
   when none names a removed phi, which is the common case. *)
let resolve_all ctx (operands : value array) : value array =
  if live ctx operands 0 then operands else Array.map (resolve ctx) operands

let write_variable ctx (v : var) (b : block) (value : value) =
  Hashtbl.replace ctx.current_def (v.vid, b.bid) value

(* Phis form a prefix of the block; a new one goes after the last. *)
let new_phi (v : var) (b : block) : instr =
  let i = mk_instr Op.Phi [||] [||] v.vty in
  insert_after_phis b i;
  i

let remove_phi (phi : instr) =
  Option.iter (fun b -> remove_instr b phi) phi.parent

(* Remove phi if all its operands are the same value (or itself). *)
let rec try_remove_trivial_phi ctx (phi : instr) : value =
  if Hashtbl.mem ctx.forward phi.id then resolve ctx (Instr phi)
  else begin
    let same = ref None in
    let trivial = ref true in
    Array.iter
      (fun op ->
        match op with
        | Instr i when i.id = phi.id -> ()
        | v -> (
            match !same with
            | None -> same := Some v
            | Some s -> if not (value_equal s v) then trivial := false))
      phi.operands;
    if not !trivial then Instr phi
    else begin
      let replacement =
        match !same with Some v -> v | None -> Undef phi.ty
      in
      (* Users that are phis may become trivial in turn. *)
      let user_phis =
        List.filter (fun u -> u != phi && u.op = Op.Phi) (users phi)
      in
      Hashtbl.replace ctx.forward phi.id replacement;
      replace_all_uses phi replacement;
      remove_phi phi;
      List.iter (fun u -> ignore (try_remove_trivial_phi ctx u)) user_phis;
      resolve ctx replacement
    end
  end

let rec read_variable ctx (v : var) (b : block) : value =
  match Hashtbl.find_opt ctx.current_def (v.vid, b.bid) with
  | Some value -> resolve ctx value
  | None -> read_variable_recursive ctx v b

and read_variable_recursive ctx (v : var) (b : block) : value =
  let value =
    if not (Hashtbl.mem ctx.sealed b.bid) then begin
      let phi = new_phi v b in
      let cur = try Hashtbl.find ctx.incomplete b.bid with Not_found -> [] in
      Hashtbl.replace ctx.incomplete b.bid ((v, phi) :: cur);
      Instr phi
    end
    else
      match preds b with
      | [ p ] -> read_variable ctx v p
      | [] -> Undef v.vty (* entry block, variable never written *)
      | _ :: _ :: _ ->
          let phi = new_phi v b in
          write_variable ctx v b (Instr phi);
          add_phi_operands ctx v phi
  in
  write_variable ctx v b value;
  value

and add_phi_operands ctx (v : var) (phi : instr) : value =
  let b = match phi.parent with Some b -> b | None -> assert false in
  List.iter (fun p -> phi_add_incoming phi (read_variable ctx v p) p) (preds b);
  try_remove_trivial_phi ctx phi

let seal_block ctx (b : block) =
  if not (Hashtbl.mem ctx.sealed b.bid) then begin
    let pending =
      try Hashtbl.find ctx.incomplete b.bid with Not_found -> []
    in
    Hashtbl.replace ctx.sealed b.bid ();
    Hashtbl.remove ctx.incomplete b.bid;
    List.iter (fun (v, phi) -> ignore (add_phi_operands ctx v phi)) pending
  end

(* ------------------------------------------------------------------ *)
(* Cursor helpers *)

let at ctx : Builder.t =
  Builder.position_at_end ctx.builder ctx.cur;
  ctx.builder

let move_to ctx (b : block) =
  ctx.cur <- b;
  ctx.terminated <- false

let condbr ctx (cond : value) (then_b : block) (else_b : block) =
  ignore
    (Builder.ins (at ctx) ~targets:[| then_b; else_b |] Op.Condbr
       (resolve_all ctx [| cond |]));
  ctx.terminated <- true

let terminate_with_br ctx (dest : block) =
  if not ctx.terminated then begin
    ignore (Builder.ins (at ctx) ~targets:[| dest |] Op.Br [||]);
    ctx.terminated <- true
  end

(* ------------------------------------------------------------------ *)
(* Public API: variables *)

let local ctx ?(name = "v") (ty : Types.ty) : var =
  ctx.var_count <- ctx.var_count + 1;
  { vid = ctx.var_count; vty = ty; vname = name }

let set ctx (v : var) (value : value) =
  if not (Types.equal (value_ty value) v.vty) then
    invalid_arg
      (Printf.sprintf "Dsl.set: variable %s has type %s, value has type %s"
         v.vname (Types.to_string v.vty)
         (Types.to_string (value_ty value)));
  write_variable ctx v ctx.cur value

let get ctx (v : var) : value = read_variable ctx v ctx.cur

(* ------------------------------------------------------------------ *)
(* Public API: expressions (all inserted into the current block) *)

let i32 = Builder.i32
let i1 = Builder.i1
let f32 = Builder.f32
let ins ctx ?ty op operands =
  Builder.ins (at ctx) ?ty op (resolve_all ctx operands)
let ibin op ctx a b = ins ctx (Op.Ibin op) [| a; b |]
let fbin op ctx a b = ins ctx (Op.Fbin op) [| a; b |]
let add = ibin Op.Add
let sub = ibin Op.Sub
let mul = ibin Op.Mul
let sdiv = ibin Op.Sdiv
let srem = ibin Op.Srem
let and_ = ibin Op.And
let or_ = ibin Op.Or
let xor = ibin Op.Xor
let shl = ibin Op.Shl
let lshr = ibin Op.Lshr
let smin = ibin Op.Smin
let smax = ibin Op.Smax
let fadd = fbin Op.Fadd
let fsub = fbin Op.Fsub
let fmul = fbin Op.Fmul
let fdiv = fbin Op.Fdiv
let fmin = fbin Op.Fmin
let fmax = fbin Op.Fmax
let icmp ctx p a b = ins ctx (Op.Icmp p) [| a; b |]
let eq ctx a b = icmp ctx Op.Ieq a b
let ne ctx a b = icmp ctx Op.Ine a b
let slt ctx a b = icmp ctx Op.Islt a b
let sle ctx a b = icmp ctx Op.Isle a b
let sgt ctx a b = icmp ctx Op.Isgt a b
let sge ctx a b = icmp ctx Op.Isge a b
let fcmp ctx p a b = ins ctx (Op.Fcmp p) [| a; b |]
let not_ ctx a = ins ctx Op.Not [| a |]
let select ctx c a b = ins ctx Op.Select [| c; a; b |]
let load ctx p = ins ctx ~ty:Types.I32 Op.Load [| p |]
let load_f ctx p = ins ctx ~ty:Types.F32 Op.Load [| p |]
let store ctx v p = ignore (ins ctx Op.Store [| v; p |])
let gep ctx p i = ins ctx Op.Gep [| p; i |]
let sitofp ctx a = ins ctx Op.Sitofp [| a |]
let fptosi ctx a = ins ctx Op.Fptosi [| a |]
let tid ctx = ins ctx Op.Thread_idx [||]
let bid ctx = ins ctx Op.Block_idx [||]
let bdim ctx = ins ctx Op.Block_dim [||]
let gdim ctx = ins ctx Op.Grid_dim [||]
let sync ctx = ignore (ins ctx Op.Syncthreads [||])

(** Allocate a per-block shared-memory array; hoisted to the entry block
    like LLVM allocas / CUDA [__shared__] declarations. *)
let shared_array ctx (n : int) : value =
  let entry = entry_block ctx.func in
  let i = mk_instr (Op.Alloc_shared n) [||] [||] (Types.Ptr Types.Shared) in
  insert_after_phis entry i;
  Instr i

(* ------------------------------------------------------------------ *)
(* Public API: structured control flow *)

let fresh_block ctx (name : string) : block =
  Builder.add_block ctx.builder name

let if_ ctx (cond : value) (then_f : unit -> unit) (else_f : unit -> unit) =
  let then_b = fresh_block ctx "if.then" in
  let else_b = fresh_block ctx "if.else" in
  let end_b = fresh_block ctx "if.end" in
  condbr ctx cond then_b else_b;
  seal_block ctx then_b;
  seal_block ctx else_b;
  move_to ctx then_b;
  then_f ();
  terminate_with_br ctx end_b;
  move_to ctx else_b;
  else_f ();
  terminate_with_br ctx end_b;
  seal_block ctx end_b;
  move_to ctx end_b

let if_then ctx (cond : value) (then_f : unit -> unit) =
  let then_b = fresh_block ctx "if.then" in
  let end_b = fresh_block ctx "if.end" in
  condbr ctx cond then_b end_b;
  seal_block ctx then_b;
  move_to ctx then_b;
  then_f ();
  terminate_with_br ctx end_b;
  seal_block ctx end_b;
  move_to ctx end_b

(** [while_ ctx cond body]: [cond] is evaluated in the (unsealed) loop
    header so variable reads inside it correctly become loop phis. *)
let while_ ctx (cond_f : unit -> value) (body_f : unit -> unit) =
  let head = fresh_block ctx "while.head" in
  terminate_with_br ctx head;
  move_to ctx head;
  let c = cond_f () in
  let body_b = fresh_block ctx "while.body" in
  let end_b = fresh_block ctx "while.end" in
  condbr ctx c body_b end_b;
  seal_block ctx body_b;
  move_to ctx body_b;
  body_f ();
  terminate_with_br ctx head;
  seal_block ctx head;
  seal_block ctx end_b;
  move_to ctx end_b

(** Counted loop [for i = from; cmp i bound; i = step i]. *)
let for_ ctx ?(name = "i") ~(from : value) ~(cmp : ctx -> value -> value)
    ~(step : ctx -> value -> value) (body_f : value -> unit) =
  let i = local ctx ~name Types.I32 in
  set ctx i from;
  while_ ctx
    (fun () -> cmp ctx (get ctx i))
    (fun () ->
      let iv = get ctx i in
      body_f iv;
      set ctx i (step ctx (get ctx i)))

(** Simple ascending loop [for i = from; i < until; i += 1]. *)
let for_up ctx ?(name = "i") ~(from : value) ~(until : value)
    (body_f : value -> unit) =
  for_ ctx ~name ~from
    ~cmp:(fun c iv -> slt c iv until)
    ~step:(fun c iv -> add c iv (i32 1))
    body_f

(* ------------------------------------------------------------------ *)
(* Kernel construction *)

(** [build_kernel ~name ~params body] constructs a fully-sealed SSA
    function.  [body] receives the context and the parameter values in
    declaration order. *)
let build_kernel ~(name : string) ~(params : (string * Types.ty) list)
    (body : ctx -> value list -> unit) : func =
  let ps =
    List.mapi (fun k (pname, pty) -> { pname; pty; pindex = k }) params
  in
  let f = mk_func name ps in
  let builder = Builder.create f in
  let entry = Builder.add_block builder "entry" in
  let ctx =
    {
      func = f;
      builder;
      cur = entry;
      terminated = false;
      sealed = Hashtbl.create 16;
      current_def = Hashtbl.create 64;
      incomplete = Hashtbl.create 16;
      forward = Hashtbl.create 16;
      var_count = 0;
    }
  in
  seal_block ctx entry;
  body ctx (List.map (fun p -> Param p) ps);
  if not ctx.terminated then begin
    ignore (ins ctx Op.Ret [||]);
    ctx.terminated <- true
  end;
  Verify.run_exn f;
  f
