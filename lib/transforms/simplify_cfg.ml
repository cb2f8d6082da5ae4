(** CFG clean-up in the spirit of LLVM's SimplifyCFG, plus
    if-conversion.  See the interface for the rewrites. *)

open Darm_ir
open Darm_ir.Ssa

let remove_trivial_phis (f : func) : bool =
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    iter_instrs f (fun i ->
        if i.op = Op.Phi && i.parent <> None then begin
          let distinct =
            List.filter
              (fun (v, _) -> not (value_equal v (Instr i)))
              (phi_incoming i)
            |> List.map fst
          in
          let all_same =
            match distinct with
            | [] -> Some (Undef i.ty)
            | v :: rest ->
                if List.for_all (value_equal v) rest then Some v else None
          in
          match all_same with
          | Some v ->
              replace_all_uses i v;
              (match i.parent with
              | Some b -> remove_instr b i
              | None -> ());
              progress := true;
              changed := true
          | None -> ()
        end)
  done;
  !changed

(* condbr on a constant, or with two identical destinations -> br *)
let fold_branches (f : func) : bool =
  let changed = ref false in
  List.iter
    (fun b ->
      if has_terminator b then begin
        let t = terminator b in
        if t.op = Op.Condbr then begin
          let tdest = t.blocks.(0) and fdest = t.blocks.(1) in
          let to_unconditional ~(dead : block option) (dest : block) =
            (match dead with
            | Some d when d.bid <> dest.bid -> phi_remove_incoming d ~pred:b
            | _ -> ());
            fold_to_br t dest;
            changed := true
          in
          if tdest.bid = fdest.bid then to_unconditional ~dead:None tdest
          else
            match t.operands.(0) with
            | Bool true -> to_unconditional ~dead:(Some fdest) tdest
            | Bool false -> to_unconditional ~dead:(Some tdest) fdest
            | _ -> ()
        end
      end)
    f.blocks_list;
  !changed

(* Merge b into its unique predecessor p when p unconditionally branches
   to b and b is p's only successor continuation.  The sweep decides as
   from the CFG at its start: when p has absorbed a block in this sweep
   ([grown]), b's edge comes from the absorbed block's terminator, and b
   waits for the next sweep. *)
let merge_into_predecessor (f : func) : bool =
  let changed = ref false in
  let entry = entry_block f in
  let grown = Hashtbl.create 8 in
  let candidates =
    List.filter
      (fun b ->
        b.bid <> entry.bid
        &&
        match preds b with
        | [ p ] ->
            has_terminator p
            && (terminator p).op = Op.Br
            && List.length (successors p) = 1
        | _ -> false)
      f.blocks_list
  in
  List.iter
    (fun b ->
      match preds b with
      | [ p ] when (not (Hashtbl.mem grown p.bid))
                   && has_terminator p && (terminator p).op = Op.Br
                   && (match successors p with
                      | [ s ] -> s.bid = b.bid
                      | _ -> false)
                   && p.bid <> b.bid ->
          (* phis in b have a single incoming (from p): fold them *)
          List.iter
            (fun phi ->
              let v =
                match phi_incoming phi with
                | [ (v, _) ] -> v
                | _ -> Instr phi (* shouldn't happen; leave as-is *)
              in
              if not (value_equal v (Instr phi)) then begin
                replace_all_uses phi v;
                remove_instr b phi
              end)
            (phis b);
          (* drop p's terminator, move b's instructions into p *)
          let t = terminator p in
          remove_instr p t;
          set_instrs p (p.instrs @ b.instrs);
          set_instrs b [];
          (* successors of b now come from p *)
          List.iter
            (fun s -> phi_replace_incoming_block s ~old_pred:b ~new_pred:p)
            (successors p);
          remove_block f b;
          Hashtbl.replace grown p.bid ();
          changed := true
      | _ -> ())
    candidates;
  !changed

(* Remove blocks that contain only `br dest` by threading predecessors
   directly to dest, unless that would create a phi conflict.  The phi
   incoming lists below follow [preds] order (descending layout
   position). *)
let remove_forwarding_blocks (f : func) : bool =
  let changed = ref false in
  let entry = entry_block f in
  let forwarding =
    List.filter
      (fun b ->
        b.bid <> entry.bid
        && (match b.instrs with
           | [ t ] -> t.op = Op.Br
           | _ -> false))
      f.blocks_list
  in
  List.iter
    (fun b ->
      if
        (* earlier removals in this batch change the CFG: recheck *)
        b.bparent <> None
        && (match b.instrs with [ t ] -> t.op = Op.Br | _ -> false)
      then begin
      let dest = (terminator b).blocks.(0) in
      if dest.bid <> b.bid then begin
        let bpreds = preds b in
        (* Conflict: a phi in dest would need two different values for the
           same predecessor edge, or a pred already reaches dest. *)
        let ok =
          bpreds <> []
          && List.for_all
               (fun phi ->
                 let v_via_b = phi_incoming_for phi b in
                 List.for_all
                   (fun p ->
                     match phi_incoming_for phi p with
                     | None -> true
                     | Some v_direct -> (
                         match v_via_b with
                         | Some v -> value_equal v v_direct
                         | None -> true))
                   bpreds)
               (phis dest)
          (* a predecessor branching to both b and dest with phis is fine
             only if values agree, which the check above covers; but a
             pred reaching dest twice via b is representable only if no
             duplicate incoming arises. *)
          && List.for_all
               (fun p ->
                 not
                   (List.exists (fun s -> s.bid = dest.bid) (successors p))
                 || phis dest = [])
               bpreds
        in
        if ok then begin
          List.iter
            (fun phi ->
              match phi_incoming_for phi b with
              | None -> ()
              | Some v ->
                  let without_b =
                    List.filter
                      (fun (_, blk) -> blk.bid <> b.bid)
                      (phi_incoming phi)
                  in
                  let additions =
                    List.filter_map
                      (fun p ->
                        if
                          List.exists
                            (fun (_, blk) -> blk.bid = p.bid)
                            without_b
                        then None
                        else Some (v, p))
                      bpreds
                  in
                  set_phi_incoming phi (without_b @ additions))
            (phis dest);
          List.iter
            (fun p -> redirect_edge p ~old_dest:b ~new_dest:dest)
            bpreds;
          remove_block f b;
          changed := true
        end
      end
      end)
    forwarding;
  !changed

let one_round (f : func) : bool =
  let c1 = Darm_analysis.Cfg.remove_unreachable f in
  let c2 = fold_branches f in
  let c3 = remove_trivial_phis f in
  let c4 = merge_into_predecessor f in
  let c5 = remove_forwarding_blocks f in
  c1 || c2 || c3 || c4 || c5

(** Run clean-up to a fixpoint; returns [true] if the function changed. *)
let run (f : func) : bool =
  let changed = ref false in
  let progress = ref true in
  let fuel = ref 1000 in
  while !progress && !fuel > 0 do
    decr fuel;
    progress := one_round f;
    if !progress then changed := true
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* If-conversion *)

(** Cost-bounded if-conversion of triangles
    [B -> (T | J), T -> J] and diamonds [B -> (T | F) -> J] whose side
    blocks contain only speculatable instructions: the side blocks are
    folded into [B] and the phis in [J] become selects.  This models the
    re-predication by later LLVM passes that the paper observes on
    bitonic sort (§VI-C). *)
let if_convert ?(max_cost = 8) (f : func) : bool =
  let lat = Darm_analysis.Latency.default in
  let changed = ref false in
  let speculatable b =
    List.for_all (fun i -> not (Op.unsafe_to_speculate i.op)) (body b)
    && phis b = []
    && (terminator b).op = Op.Br
    && List.length (preds b) = 1
  in
  let cost b =
    List.fold_left
      (fun acc i -> acc + Darm_analysis.Latency.of_instr lat i)
      0 (body b)
  in
  let hoist_into (dst : block) (side : block) =
    let t = terminator dst in
    List.iter (fun i -> remove_instr side i; insert_before t i) (body side)
  in
  (* typed by the rule: a widening phi's own type may be wider than
     its incomings *)
  let select_of cond vt vf =
    let ops = [| cond; vt; vf |] in
    mk_instr Op.Select ops [||] (Option.get (result_ty Op.Select ops))
  in
  List.iter
    (fun b ->
      if has_terminator b && (terminator b).op = Op.Condbr then begin
        let t = terminator b in
        let cond = t.operands.(0) in
        let tdest = t.blocks.(0) and fdest = t.blocks.(1) in
        if tdest.bid <> fdest.bid then begin
          let join_of blk =
            match successors blk with [ j ] -> Some j | _ -> None
          in
          let diamond () =
            match join_of tdest, join_of fdest with
            | Some j1, Some j2
              when j1.bid = j2.bid && speculatable tdest && speculatable fdest
                   && cost tdest + cost fdest <= max_cost
                   && j1.bid <> b.bid ->
                Some (tdest, fdest, j1)
            | _ -> None
          in
          let triangle () =
            (* true side is the side block, false goes straight to join *)
            match join_of tdest with
            | Some j
              when j.bid = fdest.bid && speculatable tdest
                   && cost tdest <= max_cost && j.bid <> b.bid ->
                Some (tdest, j)
            | _ -> None
          in
          let triangle_f () =
            match join_of fdest with
            | Some j
              when j.bid = tdest.bid && speculatable fdest
                   && cost fdest <= max_cost && j.bid <> b.bid ->
                Some (fdest, j)
            | _ -> None
          in
          match diamond () with
          | Some (tb, fb, j) ->
              hoist_into b tb;
              hoist_into b fb;
              (* phis in j: select between tb and fb incomings *)
              List.iter
                (fun phi ->
                  match phi_incoming_for phi tb, phi_incoming_for phi fb with
                  | Some vt, Some vf ->
                      let sel = select_of cond vt vf in
                      insert_before (terminator b) sel;
                      let rest =
                        List.filter
                          (fun (_, blk) ->
                            blk.bid <> tb.bid && blk.bid <> fb.bid)
                          (phi_incoming phi)
                      in
                      set_phi_incoming phi ((Instr sel, b) :: rest)
                  | _ -> ())
                (phis j);
              fold_to_br t j;
              remove_block f tb;
              remove_block f fb;
              changed := true
          | None -> (
              let do_triangle side j ~side_is_true =
                hoist_into b side;
                List.iter
                  (fun phi ->
                    match
                      phi_incoming_for phi side, phi_incoming_for phi b
                    with
                    | Some vs, Some vb ->
                        let tv, fv =
                          if side_is_true then vs, vb else vb, vs
                        in
                        let sel = select_of cond tv fv in
                        insert_before (terminator b) sel;
                        let rest =
                          List.filter
                            (fun (_, blk) ->
                              blk.bid <> side.bid && blk.bid <> b.bid)
                            (phi_incoming phi)
                        in
                        set_phi_incoming phi ((Instr sel, b) :: rest)
                    | _ -> ())
                  (phis j);
                fold_to_br t j;
                remove_block f side;
                changed := true
              in
              match triangle () with
              | Some (side, j) -> do_triangle side j ~side_is_true:true
              | None -> (
                  match triangle_f () with
                  | Some (side, j) -> do_triangle side j ~side_is_true:false
                  | None -> ()))
        end
      end)
    f.blocks_list;
  if !changed then ignore (run f);
  !changed
