(** IR well-formedness and SSA verifier.

    Run after every transformation in tests; a passing verifier means the
    function can be printed, parsed back, simulated, and further
    transformed.  One predecessor table serves the phi checks and the
    dominator tree, which comes from {!Dom} (the Cooper–Harvey–Kennedy
    core shared with the analyses), so each def-use dominance query is
    O(1). *)

open Ssa

type error = { msg : string }

let errf fmt = Printf.ksprintf (fun msg -> { msg }) fmt

(* Operand/result type rules per opcode.  Pointer positions accept any
   address space: melding legitimately mixes spaces through flat
   pointers. *)
let type_check_instr (err : error -> unit) (i : instr) : unit =
  let name = Op.to_string i.op in
  let ty k = value_ty i.operands.(k) in
  let expect k want =
    if Array.length i.operands > k && not (Types.equal (ty k) want) then
      err
        (errf "%s: operand %d has type %s, expected %s" name k
           (Types.to_string (ty k))
           (Types.to_string want))
  in
  let expect_ptr k =
    if Array.length i.operands > k && not (Types.is_pointer (ty k)) then
      err (errf "%s: operand %d is not a pointer" name k)
  in
  let expect_result want =
    if not (Types.equal i.ty want) then
      err
        (errf "%s: result type is %s, expected %s" name
           (Types.to_string i.ty) (Types.to_string want))
  in
  let expect_arity n =
    if Array.length i.operands <> n then
      err (errf "%s: expected %d operands, got %d" name n
             (Array.length i.operands))
  in
  let compatible a b =
    Types.equal a b || (Types.is_pointer a && Types.is_pointer b)
  in
  (* Address-space flow: a concrete-space (shared/global) pointer result
     may only be fed by pointers of the same space; widening into Flat
     is always allowed (that is what [Types.join_ptr] produces), and
     crossing back from Flat into a concrete space requires an explicit
     [addrspace.cast] — which itself always produces Flat, so narrowing
     is never implicit. *)
  let expect_no_narrowing what v =
    match i.ty, value_ty v with
    | Types.Ptr rs, Types.Ptr vs
      when (match rs with Types.Flat -> false | _ -> true)
           && not (Types.addrspace_equal rs vs) ->
        err
          (errf "%s: %s narrows a %s pointer into address space %s" name what
             (Types.addrspace_to_string vs)
             (Types.addrspace_to_string rs))
    | _ -> ()
  in
  match i.op with
  | Op.Ibin _ ->
      expect_arity 2;
      expect 0 Types.I32;
      expect 1 Types.I32;
      expect_result Types.I32
  | Op.Fbin _ ->
      expect_arity 2;
      expect 0 Types.F32;
      expect 1 Types.F32;
      expect_result Types.F32
  | Op.Icmp _ ->
      expect_arity 2;
      if Array.length i.operands = 2 && not (compatible (ty 0) (ty 1)) then
        err (errf "icmp: operand types differ");
      expect_result Types.I1
  | Op.Fcmp _ ->
      expect_arity 2;
      expect 0 Types.F32;
      expect 1 Types.F32;
      expect_result Types.I1
  | Op.Not ->
      expect_arity 1;
      expect 0 Types.I1;
      expect_result Types.I1
  | Op.Select ->
      expect_arity 3;
      expect 0 Types.I1;
      if Array.length i.operands = 3 then begin
        if not (compatible (ty 1) (ty 2) && compatible (ty 1) i.ty) then
          err (errf "select: arm/result types incompatible");
        expect_no_narrowing "true arm" i.operands.(1);
        expect_no_narrowing "false arm" i.operands.(2)
      end
  | Op.Load ->
      expect_arity 1;
      expect_ptr 0;
      if Types.equal i.ty Types.Void || Types.is_pointer i.ty then
        err (errf "load: result must be a scalar")
  | Op.Store ->
      expect_arity 2;
      expect_ptr 1;
      if
        Array.length i.operands = 2 && Types.equal (ty 0) Types.Void
      then err (errf "store: cannot store void")
  | Op.Gep ->
      expect_arity 2;
      expect_ptr 0;
      expect 1 Types.I32;
      if not (Types.is_pointer i.ty) then
        err (errf "gep: result must be a pointer")
      else if Array.length i.operands = 2 then (
        match ty 0 with
        | Types.Ptr base when not (Types.equal i.ty (Types.Ptr base)) ->
            err
              (errf "gep: result space %s differs from base space %s"
                 (Types.to_string i.ty)
                 (Types.addrspace_to_string base))
        | _ -> ())
  | Op.Condbr ->
      expect_arity 1;
      expect 0 Types.I1
  | Op.Br | Op.Ret | Op.Syncthreads -> expect_arity 0
  | Op.Thread_idx | Op.Block_idx | Op.Block_dim | Op.Grid_dim ->
      expect_arity 0;
      expect_result Types.I32
  | Op.Alloc_shared n ->
      expect_arity 0;
      if n <= 0 then err (errf "alloc.shared: non-positive size");
      expect_result (Types.Ptr Types.Shared)
  | Op.Sitofp ->
      expect_arity 1;
      expect 0 Types.I32;
      expect_result Types.F32
  | Op.Fptosi ->
      expect_arity 1;
      expect 0 Types.F32;
      expect_result Types.I32
  | Op.Addrspace_cast ->
      expect_arity 1;
      expect_ptr 0;
      expect_result (Types.Ptr Types.Flat)
  | Op.Phi ->
      Array.iter
        (fun v ->
          if not (compatible (value_ty v) i.ty) then
            err (errf "phi: incoming type %s incompatible with %s"
                   (Types.to_string (value_ty v))
                   (Types.to_string i.ty));
          expect_no_narrowing "incoming" v)
        i.operands

(** [run f] returns the list of well-formedness violations in [f];
    an empty list means the function verifies. *)
let run (f : func) : error list =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  (match f.blocks_list with
  | [] -> err (errf "function %s has no blocks" f.fname)
  | _ -> ());
  if f.blocks_list = [] then List.rev !errors
  else begin
    let preds = predecessors f in
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
    if !errors <> [] then List.rev !errors
    else begin
      (* Dominance over the blocks reachable from the entry.  Every
         edge stays inside [f.blocks_list] (checked above), so [preds]
         holds every reachable edge. *)
      let dom = Dom.compute ~is_post:false ~preds f in
      let reachable b = Hashtbl.mem dom.Dom.index_of b.bid in
      let dominates = Dom.dominates dom in
      (* Phi incoming lists must match predecessor sets exactly (for
         reachable blocks). *)
      List.iter
        (fun b ->
          if reachable b then begin
            let ps = preds_of preds b in
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
      iter_instrs f (fun i -> type_check_instr err i);
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

exception Invalid_ir of string

(** Like {!run} but raises {!Invalid_ir} with a readable report on the
    first failure. *)
let run_exn (f : func) : unit =
  match run f with
  | [] -> ()
  | errs ->
      let report =
        Printf.sprintf "IR verification failed for @%s:\n%s\n--- IR ---\n%s"
          f.fname
          (String.concat "\n" (List.map (fun e -> "  - " ^ e.msg) errs))
          (Printer.func_to_string f)
      in
      raise (Invalid_ir report)
