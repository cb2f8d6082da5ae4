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
  preds : (int, block list) Hashtbl.t;
      (** block id -> predecessors, highest block id first (the order
          {!Ssa.predecessors} gives, since blocks are appended in id
          order); final once the block is sealed *)
  forward : (int, value) Hashtbl.t;
      (** removed trivial phi id -> its replacement, which may itself
          have been removed since *)
  phi_users : (int, instr list) Hashtbl.t;
      (** phi id -> phis with an operand that resolves to it; may hold
          removed phis and duplicates, which readers skip *)
  mutable var_count : int;
}

(* ------------------------------------------------------------------ *)
(* Braun et al. SSA construction

   Linear in the size of the kernel: predecessor lists grow as branches
   are emitted, and a removed trivial phi is forwarded to its
   replacement instead of being rewritten out of the whole function.
   Reads of [current_def] and phi operands resolve through the
   forwarding table; one sweep at the end rewrites every operand. *)

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

let write_variable ctx (v : var) (b : block) (value : value) =
  Hashtbl.replace ctx.current_def (v.vid, b.bid) value

(* Phis form a prefix of the block; a new one goes after the last. *)
let new_phi (v : var) (b : block) : instr =
  let i = mk_instr Op.Phi [||] [||] v.vty in
  i.parent <- Some b;
  let rec after_phis = function
    | x :: tl when x.op = Op.Phi -> x :: after_phis tl
    | rest -> i :: rest
  in
  b.instrs <- after_phis b.instrs;
  i

let remove_phi (phi : instr) =
  match phi.parent with
  | None -> ()
  | Some b ->
      let rec drop = function
        | [] -> []
        | x :: tl -> if x.id = phi.id then tl else x :: drop tl
      in
      b.instrs <- drop b.instrs;
      phi.parent <- None

let block_preds ctx (b : block) : block list =
  try Hashtbl.find ctx.preds b.bid with Not_found -> []

let add_edge ctx ~(src : block) (dst : block) =
  let rec insert = function
    | p :: tl when p.bid > src.bid -> p :: insert tl
    | p :: _ as l when p.bid = src.bid -> l
    | l -> src :: l
  in
  Hashtbl.replace ctx.preds dst.bid (insert (block_preds ctx dst))

let add_user ctx ~(user : instr) (v : value) =
  match v with
  | Instr p when p.op = Op.Phi ->
      let us = try Hashtbl.find ctx.phi_users p.id with Not_found -> [] in
      Hashtbl.replace ctx.phi_users p.id (user :: us)
  | _ -> ()

let add_incoming ctx (phi : instr) (v : value) (pred : block) =
  let v = resolve ctx v in
  phi.operands <- Array.append phi.operands [| v |];
  phi.blocks <- Array.append phi.blocks [| pred |];
  add_user ctx ~user:phi v

(* The phis still in the function that use [phi], in function order:
   block position (ascending id), then position among the block's phis
   (ascending id, since each new phi goes after the others). *)
let live_users ctx (phi : instr) : instr list =
  let us = try Hashtbl.find ctx.phi_users phi.id with Not_found -> [] in
  List.filter (fun u -> u.id <> phi.id && u.parent <> None) us
  |> List.sort_uniq (fun a b ->
         match a.parent, b.parent with
         | Some x, Some y when x.bid <> y.bid -> compare x.bid y.bid
         | _ -> compare a.id b.id)

(* Remove phi if all its operands are the same value (or itself). *)
let rec try_remove_trivial_phi ctx (phi : instr) : value =
  if Hashtbl.mem ctx.forward phi.id then resolve ctx (Instr phi)
  else begin
    let same = ref None in
    let trivial = ref true in
    Array.iter
      (fun op ->
        match resolve ctx op with
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
      let user_phis = live_users ctx phi in
      Hashtbl.replace ctx.forward phi.id replacement;
      remove_phi phi;
      List.iter (fun u -> add_user ctx ~user:u replacement) user_phis;
      Hashtbl.remove ctx.phi_users phi.id;
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
      match block_preds ctx b with
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
  List.iter
    (fun p -> add_incoming ctx phi (read_variable ctx v p) p)
    (block_preds ctx b);
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

(* Point every operand at the live value its removed phi forwards to. *)
let resolve_operands ctx =
  if Hashtbl.length ctx.forward > 0 then
    iter_instrs ctx.func (fun i ->
        Array.iteri
          (fun k op ->
            let r = resolve ctx op in
            if r != op then i.operands.(k) <- r)
          i.operands)

(* ------------------------------------------------------------------ *)
(* Cursor helpers *)

let at ctx : Builder.t =
  Builder.position_at_end ctx.builder ctx.cur;
  ctx.builder

let move_to ctx (b : block) =
  ctx.cur <- b;
  ctx.terminated <- false

let condbr ctx (cond : value) (then_b : block) (else_b : block) =
  Builder.ins_condbr (at ctx) cond then_b else_b;
  add_edge ctx ~src:ctx.cur then_b;
  add_edge ctx ~src:ctx.cur else_b;
  ctx.terminated <- true

let terminate_with_br ctx (dest : block) =
  if not ctx.terminated then begin
    Builder.ins_br (at ctx) dest;
    add_edge ctx ~src:ctx.cur dest;
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
let add ctx a b = Builder.add (at ctx) a b
let sub ctx a b = Builder.sub (at ctx) a b
let mul ctx a b = Builder.mul (at ctx) a b
let sdiv ctx a b = Builder.sdiv (at ctx) a b
let srem ctx a b = Builder.srem (at ctx) a b
let and_ ctx a b = Builder.and_ (at ctx) a b
let or_ ctx a b = Builder.or_ (at ctx) a b
let xor ctx a b = Builder.xor (at ctx) a b
let shl ctx a b = Builder.shl (at ctx) a b
let lshr ctx a b = Builder.lshr (at ctx) a b
let smin ctx a b = Builder.ins_ibin (at ctx) Op.Smin a b
let smax ctx a b = Builder.ins_ibin (at ctx) Op.Smax a b
let fadd ctx a b = Builder.ins_fbin (at ctx) Op.Fadd a b
let fsub ctx a b = Builder.ins_fbin (at ctx) Op.Fsub a b
let fmul ctx a b = Builder.ins_fbin (at ctx) Op.Fmul a b
let fdiv ctx a b = Builder.ins_fbin (at ctx) Op.Fdiv a b
let fmin ctx a b = Builder.ins_fbin (at ctx) Op.Fmin a b
let fmax ctx a b = Builder.ins_fbin (at ctx) Op.Fmax a b
let icmp ctx p a b = Builder.ins_icmp (at ctx) p a b
let eq ctx a b = icmp ctx Op.Ieq a b
let ne ctx a b = icmp ctx Op.Ine a b
let slt ctx a b = icmp ctx Op.Islt a b
let sle ctx a b = icmp ctx Op.Isle a b
let sgt ctx a b = icmp ctx Op.Isgt a b
let sge ctx a b = icmp ctx Op.Isge a b
let fcmp ctx p a b = Builder.ins_fcmp (at ctx) p a b
let not_ ctx a = Builder.ins_not (at ctx) a
let select ctx c a b = Builder.ins_select (at ctx) c a b
let load ctx p = Builder.ins_load (at ctx) p
let load_f ctx p = Builder.ins_load_f (at ctx) p
let store ctx v p = ignore (Builder.ins_store (at ctx) v p)
let gep ctx p i = Builder.ins_gep (at ctx) p i
let sitofp ctx a = Builder.ins_sitofp (at ctx) a
let fptosi ctx a = Builder.ins_fptosi (at ctx) a
let tid ctx = Builder.ins_thread_idx (at ctx)
let bid ctx = Builder.ins_block_idx (at ctx)
let bdim ctx = Builder.ins_block_dim (at ctx)
let gdim ctx = Builder.ins_grid_dim (at ctx)
let sync ctx = Builder.ins_syncthreads (at ctx)

(** Allocate a per-block shared-memory array; hoisted to the entry block
    like LLVM allocas / CUDA [__shared__] declarations. *)
let shared_array ctx (n : int) : value =
  let entry = entry_block ctx.func in
  let i = mk_instr (Op.Alloc_shared n) [||] [||] (Types.Ptr Types.Shared) in
  i.parent <- Some entry;
  let ps, rest = List.partition (fun x -> x.op = Op.Phi) entry.instrs in
  entry.instrs <- ps @ (i :: rest);
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
      preds = Hashtbl.create 16;
      forward = Hashtbl.create 16;
      phi_users = Hashtbl.create 16;
      var_count = 0;
    }
  in
  seal_block ctx entry;
  body ctx (List.map (fun p -> Param p) ps);
  if not ctx.terminated then begin
    Builder.ins_ret (at ctx);
    ctx.terminated <- true
  end;
  resolve_operands ctx;
  Verify.run_exn f;
  f
