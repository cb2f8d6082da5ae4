(* The predecessor index [Ssa] keeps (Ssa.preds): random CFG edits
   against a rebuild from the terminators, the verifier's stale-index
   error, and the pass output's independence from process history. *)

open Darm_ir
module Gen = Darm_fuzz.Gen
module Cfg = Darm_analysis.Cfg
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

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

let terminated (f : Ssa.func) =
  List.filter Ssa.has_terminator f.Ssa.blocks_list

(* One random CFG edit through the [Ssa] mutators; [detached] holds
   terminators removed from their block, which may come back. *)
let edit rng (f : Ssa.func) (detached : (Ssa.block * Ssa.instr) list ref) :
    string =
  let blocks = f.Ssa.blocks_list in
  match Random.State.int rng 6 with
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
          let keep = t.Ssa.blocks.(Random.State.int rng 2) in
          t.Ssa.op <- Op.Br;
          t.Ssa.operands <- [||];
          Ssa.retarget t [| keep |];
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
  | _ -> (
      match pick rng blocks with
      | Some d ->
          let nb = Ssa.mk_block "fresh" in
          Ssa.append_block f nb;
          Ssa.append_instr nb (Ssa.mk_instr Op.Br [||] [| d |] Types.Void);
          "append block"
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
       ~name:"random CFG edits keep preds equal to a rebuild" subject_gen
       (fun (smoke, seed, edit_seed) ->
         let cfg = if smoke then Gen.smoke_cfg else Gen.default_cfg in
         let f = Gen.generate ~cfg ~seed () in
         let rng = Random.State.make [| edit_seed |] in
         let detached = ref [] in
         (match index_mismatch f with
         | Some m -> QCheck2.Test.fail_reportf "as generated: %s" m
         | None -> ());
         for k = 1 to 40 do
           let what = edit rng f detached in
           match index_mismatch f with
           | Some m -> QCheck2.Test.fail_reportf "after edit %d (%s): %s" k what m
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
        Alcotest.test_case "pass output ignores the SSA id offset" `Quick
          test_output_ignores_id_offset;
      ] );
  ]
