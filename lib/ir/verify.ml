(** IR well-formedness and SSA verifier.

    Run after every transformation in tests; a passing verifier means the
    function can be printed, parsed back, simulated, and further
    transformed.  The predecessor sets come from a private rebuild over
    the terminators, independent of the index {!Ssa.preds} reads, and
    the index is checked against it, as the use lists are against the
    operands.  The dominator tree comes from the function's analysis
    cache ({!Dom.tree}), so each def-use dominance query is O(1). *)

open Ssa

type error = { msg : string }

let errf fmt = Printf.ksprintf (fun msg -> { msg }) fmt

(* The per-instruction type check.  Builder runs it on every
   instruction it builds, so it allocates only to report: the helpers
   take what they read as arguments, and a message is formatted (and
   the opcode named) only when a rule fails. *)

let report err op fmt =
  Printf.ksprintf (fun msg -> err (Op.to_string op ^ ": " ^ msg)) fmt

let arity err op (ops : value array) n =
  if Array.length ops <> n then
    report err op "expected %d operands, got %d" n (Array.length ops)

let expect err op (ops : value array) k want =
  if Array.length ops > k && not (Types.equal (value_ty ops.(k)) want) then
    report err op "operand %d has type %s, expected %s" k
      (Types.to_string (value_ty ops.(k)))
      (Types.to_string want)

let expect_ptr err op (ops : value array) k =
  if Array.length ops > k && not (Types.is_pointer (value_ty ops.(k))) then
    report err op "operand %d is not a pointer" k

(* equal, or both pointers: melding mixes address spaces *)
let compatible a b =
  Types.equal a b || (Types.is_pointer a && Types.is_pointer b)

(* A phi states its type.  A concrete-space (shared/global) phi may only
   be fed pointers of that space; widening into Flat is always allowed,
   and crossing back from Flat into a concrete space takes an explicit
   [addrspace.cast], which itself produces Flat. *)
let check_incoming err ty v =
  let vty = value_ty v in
  if not (compatible vty ty) then
    report err Op.Phi "incoming type %s incompatible with %s"
      (Types.to_string vty) (Types.to_string ty);
  match ty, vty with
  | Types.Ptr ((Types.Shared | Types.Global) as rs), Types.Ptr vs
    when not (Types.addrspace_equal rs vs) ->
      report err Op.Phi "incoming narrows a %s pointer into address space %s"
        (Types.addrspace_to_string vs)
        (Types.addrspace_to_string rs)
  | _ -> ()

let check_instr err (op : Op.t) (ops : value array) (targets : block array)
    (ty : Types.ty) =
  (match op with
  | Op.Ibin _ ->
      arity err op ops 2;
      expect err op ops 0 Types.I32;
      expect err op ops 1 Types.I32
  | Op.Fbin _ | Op.Fcmp _ ->
      arity err op ops 2;
      expect err op ops 0 Types.F32;
      expect err op ops 1 Types.F32
  | Op.Icmp _ ->
      arity err op ops 2;
      if
        Array.length ops = 2
        && not (compatible (value_ty ops.(0)) (value_ty ops.(1)))
      then err "icmp: operand types differ"
  | Op.Not ->
      arity err op ops 1;
      expect err op ops 0 Types.I1
  | Op.Select ->
      arity err op ops 3;
      expect err op ops 0 Types.I1;
      if
        Array.length ops = 3
        && not (compatible (value_ty ops.(1)) (value_ty ops.(2)))
      then report err op "arm/result types incompatible"
  | Op.Load ->
      arity err op ops 1;
      expect_ptr err op ops 0;
      if Types.equal ty Types.Void || Types.is_pointer ty then
        report err op "result must be a scalar"
  | Op.Store ->
      arity err op ops 2;
      expect_ptr err op ops 1;
      if Array.length ops = 2 && Types.equal (value_ty ops.(0)) Types.Void
      then report err op "cannot store void"
  | Op.Gep ->
      arity err op ops 2;
      expect_ptr err op ops 0;
      expect err op ops 1 Types.I32
  | Op.Condbr ->
      arity err op ops 1;
      expect err op ops 0 Types.I1
  | Op.Br | Op.Ret | Op.Syncthreads | Op.Thread_idx | Op.Block_idx
  | Op.Block_dim | Op.Grid_dim ->
      arity err op ops 0
  | Op.Alloc_shared n ->
      arity err op ops 0;
      if n <= 0 then err "alloc.shared: non-positive size"
  | Op.Sitofp ->
      arity err op ops 1;
      expect err op ops 0 Types.I32
  | Op.Fptosi ->
      arity err op ops 1;
      expect err op ops 0 Types.F32
  | Op.Addrspace_cast ->
      arity err op ops 1;
      expect_ptr err op ops 0
  | Op.Phi ->
      if Array.length ops = 0 then report err op "no incoming values";
      for k = 0 to Array.length ops - 1 do
        check_incoming err ty ops.(k)
      done);
  (match result_ty op ops with
  | Some want when not (Types.equal ty want) ->
      report err op "result type is %s, expected %s" (Types.to_string ty)
        (Types.to_string want)
  | Some _ | None -> ());
  (* a phi's blocks pair with its incomings; [run] checks them *)
  match op with
  | Op.Phi -> ()
  | _ ->
      let want = match op with Op.Br -> 1 | Op.Condbr -> 2 | _ -> 0 in
      if Array.length targets <> want then
        report err op "expected %d targets, got %d" want
          (Array.length targets)

(* The reference the predecessor index is checked against: each block's
   predecessors rebuilt from the listed blocks' terminators, highest
   layout position first. *)
let predecessors (f : func) : block -> block list =
  let tbl = Hashtbl.create 32 in
  let preds_of b = try Hashtbl.find tbl b.bid with Not_found -> [] in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = preds_of s in
          if not (List.memq b cur) then Hashtbl.replace tbl s.bid (b :: cur))
        (successors b))
    f.blocks_list;
  preds_of

(* The use lists against the operands of the instructions in [f]:
   every entry names a slot that holds its instruction, and the entries
   from instructions in [f] are as many as the slots in [f] that name
   an instruction of [f].  It costs no lookup, so a list that drops
   one slot and lists another twice passes. *)
let check_uses err (f : func) =
  let in_f (i : instr) =
    match i.parent with Some { bparent = Some g; _ } -> g == f | _ -> false
  in
  let entries = ref 0 and slots = ref 0 in
  iter_instrs f (fun d ->
      let rec walk = function
        | [] -> ()
        | { user = u; slot = k } :: tl ->
            (if
               k >= Array.length u.operands
               || match u.operands.(k) with Instr x -> x != d | _ -> true
             then
               err
                 (errf "stale use list of %s: it lists operand %d of %s"
                    (site d) k (site u))
             else if in_f u then incr entries);
            walk tl
      in
      walk d.uses;
      for k = 0 to Array.length d.operands - 1 do
        match d.operands.(k) with Instr x when in_f x -> incr slots | _ -> ()
      done);
  if !entries <> !slots then
    err (errf "stale use lists: %d operand slots, %d listed" !slots !entries)

(** [run f] returns the list of well-formedness violations in [f];
    an empty list means the function verifies. *)
let run (f : func) : error list =
  computed f ~kind:"verify";
  let errors = ref [] in
  let err e = errors := e :: !errors in
  (match f.blocks_list with
  | [] -> err (errf "function %s has no blocks" f.fname)
  | _ -> ());
  if f.blocks_list = [] then List.rev !errors
  else begin
    let preds_of = predecessors f in
    let listed = Hashtbl.create 64 in
    List.iter (fun b -> Hashtbl.replace listed b.bid ()) f.blocks_list;

    (* Structural checks *)
    List.iter
      (fun b ->
        (match b.bparent with
        | Some g when g == f -> ()
        | _ -> err (errf "block %s has wrong parent" b.bname));
        (match b.instrs with
        | [] -> err (errf "block %s is empty" b.bname)
        | instrs ->
            let rec check_order seen_non_phi = function
              | [] -> ()
              | i :: tl ->
                  (match i.parent with
                  | Some bb when bb == b -> ()
                  | _ ->
                      err
                        (errf "instr %s has wrong parent" (site ~block:b i)));
                  if Op.is_terminator i.op && tl <> [] then
                    err (errf "terminator mid-block in %s" b.bname);
                  if i.op = Op.Phi && seen_non_phi then
                    err (errf "phi after non-phi in %s" b.bname);
                  check_order (seen_non_phi || i.op <> Op.Phi) tl
            in
            check_order false instrs;
            let last = List.nth instrs (List.length instrs - 1) in
            if not (Op.is_terminator last.op) then
              err (errf "block %s lacks a terminator" b.bname)
            else
              Array.iter
                (fun s ->
                  if not (Hashtbl.mem listed s.bid) then
                    err
                      (errf "branch in %s targets block %s outside @%s"
                         b.bname s.bname f.fname))
                last.blocks))
      f.blocks_list;
    (* a stale index is structural: every CFG query reads it *)
    if !errors = [] then
      List.iter
        (fun b ->
          let names bs = String.concat " " (List.map (fun p -> p.bname) bs) in
          let got = Ssa.preds b and want = preds_of b in
          if not (List.equal ( == ) got want) then
            err
              (errf
                 "stale predecessor index at %s: lists [%s], the terminators \
                  give [%s]"
                 b.bname (names got) (names want)))
        f.blocks_list;
    if !errors = [] then check_uses err f;
    if !errors <> [] then List.rev !errors
    else begin
      (* Dominance over the blocks reachable from the entry.  Every
         edge stays inside [f.blocks_list] (checked above), so [preds_of]
         holds every reachable edge, and the index agrees with it. *)
      let dom = Dom.tree ~is_post:false f in
      let reachable b = Hashtbl.mem dom.Dom.index_of b.bid in
      let dominates = Dom.dominates dom in
      (* Phi incoming lists must match predecessor sets exactly (for
         reachable blocks). *)
      List.iter
        (fun b ->
          if reachable b then begin
            let ps = preds_of b in
            List.iter
              (fun p ->
                if Array.length p.operands <> Array.length p.blocks then begin
                  err
                    (errf "phi in %s: %d values vs %d incoming blocks"
                       b.bname
                       (Array.length p.operands)
                       (Array.length p.blocks))
                end
                else
                let inc = phi_incoming p in
                List.iter
                  (fun pred ->
                    if
                      not
                        (List.exists (fun (_, blk) -> blk.bid = pred.bid) inc)
                    then
                      err
                        (errf "phi in %s misses incoming for pred %s" b.bname
                           pred.bname))
                  ps;
                List.iter
                  (fun (_, blk) ->
                    if not (List.exists (fun q -> q.bid = blk.bid) ps) then
                      err
                        (errf "phi in %s has incoming for non-pred %s" b.bname
                           blk.bname))
                  inc;
                let seen = Hashtbl.create 4 in
                List.iter
                  (fun (_, blk) ->
                    if Hashtbl.mem seen blk.bid then
                      err
                        (errf "phi in %s has duplicate incoming block %s"
                           b.bname blk.bname);
                    Hashtbl.replace seen blk.bid ())
                  inc)
              (phis b)
          end)
        f.blocks_list;
      (* Def-use dominance.  An instruction's position within its block
         matters: defs must appear before uses in the same block. *)
      let pos = Hashtbl.create 64 in
      List.iter
        (fun b ->
          List.iteri (fun k i -> Hashtbl.replace pos i.id (b.bid, k)) b.instrs)
        f.blocks_list;
      let def_dominates_use (def : instr) (use : instr) ~(incoming : block option) =
        match def.parent, use.parent with
        | Some db, Some ub -> (
            match incoming with
            | Some edge_src ->
                (* value flows along edge edge_src -> ub; def must dominate
                   edge_src (or be in it). *)
                db.bid = edge_src.bid || dominates db edge_src
            | None ->
                if db.bid = ub.bid then
                  let _, dk = Hashtbl.find pos def.id in
                  let _, uk = Hashtbl.find pos use.id in
                  dk < uk
                else dominates db ub)
        | _ -> false
      in
      let err_msg msg = err { msg } in
      iter_instrs f (fun i ->
          check_instr err_msg i.op i.operands i.blocks i.ty);
      iter_instrs f (fun i ->
          match i.parent with
          | Some b when reachable b ->
              if i.op = Op.Phi then
                (if Array.length i.operands = Array.length i.blocks then
                List.iter
                  (fun (v, src) ->
                    match v with
                    | Instr def ->
                        if not (def_dominates_use def i ~incoming:(Some src))
                        then
                          err
                            (errf
                               "phi use in %s: def %s does not dominate edge \
                                from %s"
                               b.bname (site def) src.bname)
                    | Int _ | Bool _ | Float _ | Undef _ | Param _ -> ())
                  (phi_incoming i))
              else
                Array.iter
                  (fun v ->
                    match v with
                    | Instr def ->
                        if not (def_dominates_use def i ~incoming:None) then
                          err
                            (errf
                               "use in %s (op %s): def %s does not dominate \
                                use %s"
                               b.bname (Op.to_string i.op) (site def) (site i))
                    | Int _ | Bool _ | Float _ | Undef _ | Param _ -> ())
                  i.operands
          | _ -> ());
      List.rev !errors
    end
  end

type fact += Verified

let check (f : func) : error list =
  cached f ~kind:"verify"
    (function Verified -> Some [] | _ -> None)
    ~keep:(function [] -> Some Verified | _ :: _ -> None)
    (fun () -> run f)

exception Invalid_ir of string

(** Like {!check} but raises {!Invalid_ir} with a readable report on
    the first failure. *)
let run_exn (f : func) : unit =
  match check f with
  | [] -> ()
  | errs ->
      let report =
        Printf.sprintf "IR verification failed for @%s:\n%s\n--- IR ---\n%s"
          f.fname
          (String.concat "\n" (List.map (fun e -> "  - " ^ e.msg) errs))
          (Printer.func_to_string f)
      in
      raise (Invalid_ir report)
