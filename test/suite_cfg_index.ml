(* The predecessor index and the use lists [Ssa] keeps (Ssa.preds,
   Ssa.users), the edit count the analysis manager keys its cache on
   and the blocks' edit stamps the pass keeps region searches by:
   random CFG and instruction edits against rebuilds from the
   terminators and the operands, against fresh analyses and against
   each block as it was before the edit, the verifier's stale-index and
   stale-use-list errors, and the pass output's independence from
   process history. *)

open Darm_ir
module Gen = Darm_fuzz.Gen
module Cfg = Darm_analysis.Cfg
module Domtree = Darm_analysis.Domtree
module Divergence = Darm_analysis.Divergence
module Manager = Darm_analysis.Manager
module Pass = Darm_core.Pass

(* Block id -> predecessors, rebuilt from each listed block's
   terminator, highest layout position first: the order [Ssa.preds]
   promises. *)
let rebuilt (f : Ssa.func) (b : Ssa.block) : int list =
  List.fold_left
    (fun acc p ->
      if List.exists (fun s -> s == b) (Ssa.successors p) then
        p.Ssa.bid :: acc
      else acc)
    [] f.Ssa.blocks_list

let index_mismatch (f : Ssa.func) : string option =
  List.find_map
    (fun b ->
      let got = List.map (fun p -> p.Ssa.bid) (Ssa.preds b)
      and want = rebuilt f b in
      if got = want then None
      else
        Some
          (Printf.sprintf "%s: index [%s], rebuild [%s]" b.Ssa.bname
             (String.concat " " (List.map string_of_int got))
             (String.concat " " (List.map string_of_int want))))
    f.Ssa.blocks_list

(* Instruction id -> its users, rebuilt from the operands of every
   listed instruction: what [Ssa.users] must give, in any order. *)
let users_mismatch (f : Ssa.func) : string option =
  let want = Hashtbl.create 64 in
  let want_of d = Option.value ~default:[] (Hashtbl.find_opt want d.Ssa.id) in
  Ssa.iter_instrs f (fun u ->
      Array.iter
        (function
          | Ssa.Instr d ->
              if not (List.memq u (want_of d)) then
                Hashtbl.replace want d.Ssa.id (u :: want_of d)
          | _ -> ())
        u.Ssa.operands);
  let ids l = List.sort compare (List.map (fun u -> u.Ssa.id) l) in
  let show l = String.concat " " (List.map string_of_int l) in
  Ssa.fold_instrs f
    (fun acc d ->
      match acc with
      | Some _ -> acc
      | None ->
          let got = ids (Ssa.users d) and want = ids (want_of d) in
          if got = want then None
          else
            Some
              (Printf.sprintf "users of %s: list [%s], rebuild [%s]"
                 (Ssa.site d) (show got) (show want)))
    None

(* The manager's four analyses against a fresh compute; the edit count
   alone keeps them current, so a mutator that skipped its bump would
   show here as a cached result that differs. *)
let analysis_mismatch (m : Manager.t) (f : Ssa.func) : string option =
  let bids = List.map (fun b -> b.Ssa.bid) in
  if bids (Manager.reachable m) <> bids (Cfg.reachable_blocks f) then
    Some "reachable"
  else if not (Domtree.equal (Manager.domtree m) (Domtree.compute f)) then
    Some "domtree"
  else if
    not (Domtree.equal (Manager.postdomtree m) (Domtree.compute_post f))
  then Some "postdomtree"
  else if
    not (Divergence.equal (Manager.divergence m) (Divergence.compute f))
  then Some "divergence"
  else None

(* A block as a region search can read it: each instruction's opcode,
   type, operands with their types, and targets. *)
let render_block (b : Ssa.block) : string =
  let value v =
    let name =
      match v with
      | Ssa.Instr d -> "%" ^ string_of_int d.Ssa.id
      | Ssa.Param p -> "@" ^ p.Ssa.pname
      | Ssa.Int k -> string_of_int k
      | Ssa.Bool x -> string_of_bool x
      | Ssa.Float x -> Printf.sprintf "%h" x
      | Ssa.Undef _ -> "undef"
    in
    name ^ ":" ^ Types.to_string (Ssa.value_ty v)
  in
  let instr (i : Ssa.instr) =
    Printf.sprintf "%%%d = %s %s (%s) [%s]" i.Ssa.id (Op.to_string i.Ssa.op)
      (Types.to_string i.Ssa.ty)
      (String.concat ", " (List.map value (Array.to_list i.Ssa.operands)))
      (String.concat " "
         (List.map (fun t -> string_of_int t.Ssa.bid) (Array.to_list i.Ssa.blocks)))
  in
  String.concat "; " (List.map instr b.Ssa.instrs)

let pred_ids (b : Ssa.block) = List.map (fun p -> p.Ssa.bid) (Ssa.preds b)

(* Each block of [f] by id: its edit stamp, rendering and predecessors. *)
let snapshot (f : Ssa.func) : (int, int * string * int list) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      Hashtbl.replace t b.Ssa.bid (b.Ssa.edit_stamp, render_block b, pred_ids b))
    f.Ssa.blocks_list;
  t

(* A block of [f], in it before and after an edit, whose stamp did not
   move but whose rendering or predecessors did. *)
let unstamped_change before (f : Ssa.func) : string option =
  List.find_map
    (fun b ->
      match Hashtbl.find_opt before b.Ssa.bid with
      | Some (stamp, text, preds) when stamp = b.Ssa.edit_stamp ->
          if text <> render_block b then
            Some
              (Printf.sprintf "%s changed under stamp %d: was [%s], is [%s]"
                 b.Ssa.bname stamp text (render_block b))
          else if preds <> pred_ids b then
            Some
              (Printf.sprintf "%s's predecessors changed under stamp %d"
                 b.Ssa.bname stamp)
          else None
      | Some _ | None -> None)
    f.Ssa.blocks_list

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

let terminated (f : Ssa.func) =
  List.filter Ssa.has_terminator f.Ssa.blocks_list

(* A value to put in place of [v]: a constant or another instruction's
   result of the same type. *)
let replacement rng (f : Ssa.func) (v : Ssa.value) : Ssa.value option =
  let ty = Ssa.value_ty v in
  let consts =
    match ty with
    | Types.I32 -> [ Ssa.Int 0; Ssa.Int 7 ]
    | Types.I1 -> [ Ssa.Bool true; Ssa.Bool false ]
    | Types.F32 -> [ Ssa.Float 0.5 ]
    | Types.Ptr _ | Types.Void -> []
  in
  let defs =
    Ssa.fold_instrs f
      (fun acc d -> if Types.equal d.Ssa.ty ty then Ssa.Instr d :: acc else acc)
      []
  in
  pick rng (consts @ defs)

(* Loads of [f] whose pointer operand is of pointer type. *)
let loads (f : Ssa.func) : Ssa.instr list =
  Ssa.fold_instrs f
    (fun acc i ->
      if i.Ssa.op = Op.Load && Types.is_pointer (Ssa.value_ty i.Ssa.operands.(0))
      then i :: acc
      else acc)
    []

(* One random edit through the [Ssa] mutators: a CFG edit (an edge
   redirected, a branch folded, a terminator detached, attached or
   moved to another block), or an instruction edit (an unused
   instruction removed, one operand rewritten, a phi's incoming list
   changed, a load's pointer routed through a gep in another block, a
   gep feeding a load in another block retyped to a flat pointer).
   [detached] holds terminators removed from their block, which may
   come back. *)
let edit rng (f : Ssa.func) (detached : (Ssa.block * Ssa.instr) list ref) :
    string =
  let blocks = f.Ssa.blocks_list in
  match Random.State.int rng 12 with
  | 0 -> (
      match pick rng (terminated f) with
      | Some src when (Ssa.terminator src).Ssa.blocks <> [||] -> (
          let t = Ssa.terminator src in
          let old_dest = t.Ssa.blocks.(Random.State.int rng
                                         (Array.length t.Ssa.blocks)) in
          match pick rng blocks with
          | Some new_dest ->
              Ssa.redirect_edge src ~old_dest ~new_dest;
              "redirect_edge"
          | None -> "none")
      | _ -> "none")
  | 1 -> (
      let condbrs =
        List.filter
          (fun b -> (Ssa.terminator b).Ssa.op = Op.Condbr)
          (terminated f)
      in
      match pick rng condbrs with
      | Some b ->
          let t = Ssa.terminator b in
          Ssa.fold_to_br t t.Ssa.blocks.(Random.State.int rng 2);
          "condbr->br"
      | None -> "none")
  | 2 ->
      ignore (Cfg.remove_unreachable f);
      "remove_unreachable"
  | 3 -> (
      match pick rng (terminated f) with
      | Some b ->
          let t = Ssa.terminator b in
          Ssa.remove_instr b t;
          detached := (b, t) :: !detached;
          "remove terminator"
      | None -> "none")
  | 4 -> (
      match !detached with
      | (b, t) :: rest when b.Ssa.bparent <> None && not (Ssa.has_terminator b)
        ->
          detached := rest;
          (* put the old terminator back, or a fresh br elsewhere *)
          (if Random.State.bool rng then Ssa.append_instr b t
           else
             match pick rng blocks with
             | Some d ->
                 Ssa.append_instr b
                   (Ssa.mk_instr Op.Br [||] [| d |] Types.Void)
             | None -> ());
          "append terminator"
      | _ -> "none")
  | 5 -> (
      match pick rng blocks with
      | Some d ->
          let nb = Ssa.mk_block "fresh" in
          Ssa.append_block f nb;
          Ssa.append_instr nb (Ssa.mk_instr Op.Br [||] [| d |] Types.Void);
          "append block"
      | None -> "none")
  | 6 -> (
      let used = Hashtbl.create 64 in
      Ssa.iter_instrs f (fun u ->
          Array.iter
            (function Ssa.Instr d -> Hashtbl.replace used d.Ssa.id () | _ -> ())
            u.Ssa.operands);
      let unused =
        List.concat_map
          (fun b ->
            List.filter_map
              (fun i ->
                if Hashtbl.mem used i.Ssa.id then None else Some (b, i))
              (Ssa.body b))
          blocks
      in
      match pick rng unused with
      | Some (b, i) ->
          Ssa.remove_instr b i;
          "remove unused instruction"
      | None -> "none")
  | 7 -> (
      let with_operands =
        Ssa.fold_instrs f
          (fun acc i ->
            if i.Ssa.op <> Op.Phi && Array.length i.Ssa.operands > 0 then
              i :: acc
            else acc)
          []
      in
      match pick rng with_operands with
      | Some i -> (
          let k = Random.State.int rng (Array.length i.Ssa.operands) in
          match replacement rng f i.Ssa.operands.(k) with
          | Some v ->
              Ssa.set_operand i k v;
              "rewrite one operand"
          | None -> "none")
      | None -> "none")
  | 8 -> (
      let phis = List.concat_map Ssa.phis blocks in
      match pick rng (List.filter (fun p -> p.Ssa.operands <> [||]) phis) with
      | Some p -> (
          let incoming = Ssa.phi_incoming p in
          let k = Random.State.int rng (List.length incoming) in
          let v, from = List.nth incoming k in
          if Random.State.bool rng then (
            match p.Ssa.parent with
            | Some b ->
                Ssa.phi_remove_incoming b ~pred:from;
                "drop phi incoming"
            | None -> "none")
          else
            match replacement rng f v with
            | Some v' ->
                Ssa.set_phi_incoming p
                  (List.mapi
                     (fun j (x, blk) -> if j = k then (v', blk) else (x, blk))
                     incoming);
                "rewrite phi incoming"
            | None -> "none")
      | None -> "none")
  | 9 -> (
      (* as SimplifyCFG's merge moves a terminator: out of one block's
         list, into another's *)
      match !detached, pick rng (terminated f) with
      | (b, t) :: rest, Some a
        when a != b && b.Ssa.bparent <> None && not (Ssa.has_terminator b) ->
          let ta = Ssa.terminator a in
          Ssa.set_instrs a (List.filter (fun i -> i != ta) a.Ssa.instrs);
          Ssa.set_instrs b (b.Ssa.instrs @ [ ta ]);
          detached := (a, t) :: rest;
          "move terminator"
      | _ -> "none")
  | 10 -> (
      match pick rng (loads f), pick rng blocks with
      | Some ({ Ssa.parent = Some b; _ } as l), Some a when a != b ->
          let ops = [| l.Ssa.operands.(0); Ssa.Int 0 |] in
          let g =
            Ssa.mk_instr Op.Gep ops [||]
              (Option.get (Ssa.result_ty Op.Gep ops))
          in
          Ssa.insert_after_phis a g;
          Ssa.set_operand l 0 (Ssa.Instr g);
          "route a load through a gep"
      | _ -> "none")
  | _ -> (
      let cross_block l =
        match l.Ssa.operands.(0) with
        | Ssa.Instr ({ Ssa.parent = Some a; _ } as g)
          when g.Ssa.op = Op.Gep
               && (match l.Ssa.parent with Some b -> a != b | None -> false)
               && g.Ssa.ty <> Types.Ptr Types.Flat ->
            Some g
        | _ -> None
      in
      match pick rng (List.filter_map cross_block (loads f)) with
      | Some g ->
          let cast =
            Ssa.mk_instr Op.Addrspace_cast [| g.Ssa.operands.(0) |] [||]
              (Types.Ptr Types.Flat)
          in
          Ssa.insert_before g cast;
          Ssa.set_operand g 0 (Ssa.Instr cast);
          "retype a gep feeding a load"
      | None -> "none")

let subject_gen : (bool * int * int) QCheck2.Gen.t =
  QCheck2.Gen.(triple bool (int_range 0 10_000) (int_range 0 10_000))

let print_subject (smoke, seed, edits) =
  Printf.sprintf "%s seed %d, edit seed %d"
    (if smoke then "smoke" else "default")
    seed edits

let prop_index_matches_rebuild =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~print:print_subject
       ~name:"random CFG edits keep preds and analyses fresh" subject_gen
       (fun (smoke, seed, edit_seed) ->
         let cfg = if smoke then Gen.smoke_cfg else Gen.default_cfg in
         let f = Gen.generate ~cfg ~seed () in
         let mgr = Manager.create f in
         let rng = Random.State.make [| edit_seed |] in
         let detached = ref [] in
         (match index_mismatch f with
         | Some m -> QCheck2.Test.fail_reportf "as generated: %s" m
         | None -> ());
         (* fill the cache, so the first edit meets cached results *)
         ignore (analysis_mismatch mgr f);
         for k = 1 to 40 do
           let before = snapshot f in
           let what = edit rng f detached in
           (match unstamped_change before f with
           | Some m -> QCheck2.Test.fail_reportf "after edit %d (%s): %s" k what m
           | None -> ());
           (match index_mismatch f with
           | Some m -> QCheck2.Test.fail_reportf "after edit %d (%s): %s" k what m
           | None -> ());
           (match users_mismatch f with
           | Some m -> QCheck2.Test.fail_reportf "after edit %d (%s): %s" k what m
           | None -> ());
           match analysis_mismatch mgr f with
           | Some a ->
               QCheck2.Test.fail_reportf
                 "after edit %d (%s): the manager's %s differs from a fresh \
                  compute"
                 k what a
           | None -> ()
         done;
         true))

(* a stale index is a structural verifier error *)
let test_verify_reports_stale_index () =
  let f = Ssa.mk_func "stale" [] in
  let e = Ssa.mk_block "entry" and t = Ssa.mk_block "t"
  and fl = Ssa.mk_block "f" and j = Ssa.mk_block "join" in
  List.iter (Ssa.append_block f) [ e; t; fl; j ];
  Ssa.append_instr e
    (Ssa.mk_instr Op.Condbr [| Ssa.Bool true |] [| t; fl |] Types.Void);
  Ssa.append_instr t (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  Ssa.append_instr fl (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  Ssa.append_instr j (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  let msgs () = List.map (fun (e : Verify.error) -> e.Verify.msg) (Verify.run f) in
  Alcotest.(check (list string)) "verifies" [] (msgs ());
  Alcotest.(check (list string))
    "join's preds, highest layout position first" [ "f"; "t" ]
    (List.map (fun b -> b.Ssa.bname) (Ssa.preds j));
  j.Ssa.targeted_by <- [];
  Alcotest.(check (list string))
    "emptied index"
    [ "stale predecessor index at join: lists [], the terminators give [f t]" ]
    (msgs ())

(* a stale use list is a structural verifier error too *)
let test_verify_reports_stale_uses () =
  let f = Ssa.mk_func "stale" [] in
  let e = Ssa.mk_block "entry" in
  Ssa.append_block f e;
  let t = Ssa.mk_instr Op.Thread_idx [||] [||] Types.I32 in
  let a =
    Ssa.mk_instr (Op.Ibin Op.Add) [| Ssa.Instr t; Ssa.Instr t |] [||]
      Types.I32
  in
  List.iter (Ssa.append_instr e)
    [ t; a; Ssa.mk_instr Op.Ret [||] [||] Types.Void ];
  let msgs () =
    List.map (fun (e : Verify.error) -> e.Verify.msg) (Verify.run f)
  in
  Alcotest.(check (list string)) "verifies" [] (msgs ());
  let listed = t.Ssa.uses in
  t.Ssa.uses <- [ List.hd listed ];
  Alcotest.(check (list string))
    "one slot dropped"
    [ "stale use lists: 2 operand slots, 1 listed" ]
    (msgs ());
  t.Ssa.uses <- { Ssa.user = a; slot = 1 } :: listed;
  Alcotest.(check (list string))
    "one slot twice"
    [ "stale use lists: 2 operand slots, 3 listed" ]
    (msgs ());
  t.Ssa.uses <- { Ssa.user = a; slot = 2 } :: listed;
  Alcotest.(check (list string))
    "a slot that names no such value"
    [ "stale use list of entry#0: it lists operand 2 of entry#1" ]
    (msgs ())

(* The melded output printed from a kernel's text does not depend on
   how many SSA ids the process used before: ids, and so hash-table
   orders keyed by them, move, and the layout stamp does not. *)
let test_output_ignores_id_offset () =
  let subjects =
    [ (Gen.smoke_cfg, 0); (Gen.smoke_cfg, 1); (Gen.default_cfg, 0) ]
  in
  List.iter
    (fun (cfg, seed) ->
      let text = Printer.func_to_string (Gen.generate ~cfg ~seed ()) in
      let melded () =
        match Parser.parse_func text with
        | Error e -> Alcotest.failf "seed %d does not re-parse: %s" seed e
        | Ok f ->
            ignore (Pass.run f);
            Printer.func_to_string f
      in
      let before = melded () in
      for _ = 1 to 1 lsl 20 do
        ignore (Ssa.fresh_id ())
      done;
      Alcotest.(check string)
        (Printf.sprintf "seed %d after 2^20 fresh ids" seed)
        before (melded ()))
    subjects

let suites =
  [
    ( "cfg-index",
      [
        prop_index_matches_rebuild;
        Alcotest.test_case "verifier reports a stale index" `Quick
          test_verify_reports_stale_index;
        Alcotest.test_case "verifier reports a stale use list" `Quick
          test_verify_reports_stale_uses;
        Alcotest.test_case "pass output ignores the SSA id offset" `Quick
          test_output_ignores_id_offset;
      ] );
  ]
