(** Tail merging (cross-jumping), the restrictive baseline of Table I.
    See the interface. *)

open Darm_ir
open Darm_ir.Ssa

(* Do i1 (in b1's suffix) and i2 (in b2's suffix) perform the identical
   operation?  [pairing] maps already-matched suffix instructions of b2
   to their b1 counterparts. *)
let instr_identical (pairing : (int, instr) Hashtbl.t) (i1 : instr)
    (i2 : instr) : bool =
  Op.equal i1.op i2.op
  && Types.equal i1.ty i2.ty
  && Array.length i1.operands = Array.length i2.operands
  && Array.length i1.blocks = Array.length i2.blocks
  && (i1.op <> Op.Phi)
  && Array.for_all2
       (fun v1 v2 ->
         value_equal v1 v2
         ||
         match v2 with
         | Instr d2 -> (
             match Hashtbl.find_opt pairing d2.id with
             | Some d1 -> value_equal v1 (Instr d1)
             | None -> false)
         | _ -> false)
       i1.operands i2.operands
  && Array.for_all2 (fun a b -> a.bid = b.bid) i1.blocks i2.blocks

(* longest common suffix of body instructions (terminators excluded,
   both must be plain Br to the same target) *)
let common_suffix (b1 : block) (b2 : block) : (instr * instr) list =
  let body b =
    List.filter
      (fun i -> i.op <> Op.Phi && not (Op.is_terminator i.op))
      b.instrs
  in
  let l1 = body b1 and l2 = body b2 in
  let n1 = List.length l1 and n2 = List.length l2 in
  (* SSA operands point backwards, so the pairing must be built front to
     back within each candidate suffix; try the longest length first. *)
  let last_k l n k = List.filteri (fun idx _ -> idx >= n - k) l in
  let check k : (instr * instr) list option =
    let s1 = last_k l1 n1 k and s2 = last_k l2 n2 k in
    let pairing = Hashtbl.create 8 in
    let ok =
      List.for_all2
        (fun i1 i2 ->
          if instr_identical pairing i1 i2 then begin
            Hashtbl.replace pairing i2.id i1;
            true
          end
          else false)
        s1 s2
    in
    if ok then Some (List.combine s1 s2) else None
  in
  let rec longest k =
    if k = 0 then []
    else match check k with Some s -> s | None -> longest (k - 1)
  in
  longest (min n1 n2)

let merge_pair (f : func) (b1 : block) (b2 : block) (dest : block)
    (suffix : (instr * instr) list) : unit =
  let m = mk_block (b1.bname ^ ".tail") in
  append_block f m;
  (* move b1's suffix instructions into m; drop b2's *)
  List.iter
    (fun (i1, i2) ->
      remove_instr b1 i1;
      append_instr m i1;
      replace_all_uses i2 (Instr i1);
      remove_instr b2 i2)
    suffix;
  let jump = mk_instr Op.Br [||] [| dest |] Types.Void in
  append_instr m jump;
  (* b1/b2 now branch to m instead of dest *)
  redirect_edge b1 ~old_dest:dest ~new_dest:m;
  redirect_edge b2 ~old_dest:dest ~new_dest:m;
  (* phis in dest: one incoming from m; conflicting values get a phi in
     m *)
  List.iter
    (fun phi ->
      match phi_incoming_for phi b1, phi_incoming_for phi b2 with
      | Some v1, Some v2 ->
          let merged_value =
            if value_equal v1 v2 then v1
            else begin
              let pm = mk_instr Op.Phi [||] [||] phi.ty in
              prepend_instr m pm;
              set_phi_incoming pm [ (v1, b1); (v2, b2) ];
              Instr pm
            end
          in
          let rest =
            List.filter
              (fun (_, blk) -> blk.bid <> b1.bid && blk.bid <> b2.bid)
              (phi_incoming phi)
          in
          set_phi_incoming phi ((merged_value, m) :: rest)
      | _ -> ())
    (phis dest)

(** One merging round: a pair of predecessors sharing at least one
    identical trailing instruction merges.  Returns [true] if a merge
    happened. *)
let run_once (f : func) : bool =
  let try_block (dest : block) : bool =
    let brs =
      List.filter
        (fun p ->
          has_terminator p
          && (terminator p).op = Op.Br
          && p.bid <> dest.bid)
        (preds dest)
    in
    let rec pairs = function
      | [] -> false
      | b1 :: rest ->
          let merged =
            List.exists
              (fun b2 ->
                let suffix = common_suffix b1 b2 in
                if suffix <> [] then begin
                  merge_pair f b1 b2 dest suffix;
                  true
                end
                else false)
              rest
          in
          if merged then true else pairs rest
    in
    pairs brs
  in
  List.exists try_block f.blocks_list

(** Merge to a fixpoint; returns the number of merges applied. *)
let run (f : func) : int =
  let count = ref 0 in
  while run_once f do
    incr count;
    ignore (Simplify_cfg.run f)
  done;
  !count
