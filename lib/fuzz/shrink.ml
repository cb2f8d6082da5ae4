(** Deterministic delta-debugging minimizer over printed IR text. *)

open Darm_ir
module E = Darm_harness.Experiment

type result = { sh_text : string; sh_steps : int; sh_blocks : int }

let zero_of_ty = function
  | Types.I32 -> Some (Ssa.Int 0)
  | Types.I1 -> Some (Ssa.Bool false)
  | Types.F32 -> Some (Ssa.Float 0.0)
  | _ -> None

(* The candidate edits for one parsed function, as thunks returning
   [true] when they changed it.  Enumerated in a fixed order — blocks in
   [blocks_list] order, instructions in body order — so the whole search
   is deterministic.  Coarse edits (collapsing a conditional branch
   deletes the unreachable arm's subtree) come first: most of a random
   kernel is irrelevant to any one failure, so the big cuts land early
   and the fine-grained classes run on an already small kernel. *)
let edits (f : Ssa.func) : (unit -> bool) list =
  let collapse b keep_idx () =
    let t = Ssa.terminator b in
    if t.Ssa.op <> Op.Condbr then false
    else
      let keep = t.Ssa.blocks.(keep_idx) in
      let drop = t.Ssa.blocks.(1 - keep_idx) in
      if keep == drop then false
      else begin
        Ssa.phi_remove_incoming drop ~pred:b;
        Ssa.fold_to_br t keep;
        true
      end
  in
  let drop_effect b i () =
    match i.Ssa.parent with
    | Some p when p == b ->
        Ssa.remove_instr b i;
        true
    | _ -> false
  in
  let zero_result i () =
    match zero_of_ty i.Ssa.ty with
    | None -> false
    | Some z ->
        if Ssa.users i = [] then false
        else begin
          Ssa.replace_all_uses i z;
          true
        end
  in
  let zero_operand i j () =
    match i.Ssa.operands.(j) with
    | Ssa.Int k when k <> 0 ->
        Ssa.set_operand i j (Ssa.Int 0);
        true
    | _ -> false
  in
  let branches = ref [] and effects = ref [] in
  let zeros = ref [] and consts = ref [] in
  List.iter
    (fun b ->
      (if Ssa.has_terminator b then
         let t = Ssa.terminator b in
         if t.Ssa.op = Op.Condbr then
           branches := collapse b 1 :: collapse b 0 :: !branches);
      List.iter
        (fun i ->
          if Op.has_side_effect i.Ssa.op then
            effects := drop_effect b i :: !effects
          else zeros := zero_result i :: !zeros;
          Array.iteri
            (fun j _ -> consts := zero_operand i j :: !consts)
            i.Ssa.operands)
        (Ssa.body b))
    f.Ssa.blocks_list;
  List.concat [ List.rev !branches; List.rev !effects;
                List.rev !zeros; List.rev !consts ]

(* the cleanups step to a fixpoint, at most 8 rounds *)
let cleanup (f : Ssa.func) =
  let cleanups = List.assoc "cleanups" E.transforms in
  let rec go fuel =
    if fuel > 0 && fst (cleanups.E.t_apply f) > 0 then go (fuel - 1)
  in
  go 8

(* Every block the entry reaches can still reach a [ret]: the
   post-dominator tree's sweep back from the return blocks over
   [Ssa.preds] gives each such block an immediate post-dominator.  A
   kernel that fails this spins until the simulator's cycle cap. *)
let can_finish (f : Ssa.func) : bool =
  Array.for_all (fun d -> d >= 0) (Dom.tree ~is_post:true f).Dom.idom

type attempt = Accepted of string | Rejected | Exhausted

(* [finish]: the input can finish, so a candidate must too — one that
   cannot is rejected before [still_failing] would simulate it *)
let attempt ~still_failing ~finish cur idx : attempt =
  match Parser.parse_func cur with
  | Error _ -> Exhausted
  | Ok f -> (
      let es = edits f in
      if idx >= List.length es then Exhausted
      else if not ((List.nth es idx) ()) then Rejected
      else
        match
          try
            cleanup f;
            if Verify.run f = [] && ((not finish) || can_finish f) then
              Some (Printer.func_to_string f)
            else None
          with _ -> None
        with
        | None -> Rejected
        | Some t when String.equal t cur -> Rejected
        | Some t -> if still_failing t then Accepted t else Rejected)

let minimize ?(max_steps = 1_000) ~still_failing text0 : result =
  if not (still_failing text0) then
    invalid_arg "Shrink.minimize: the input does not satisfy still_failing";
  let finish =
    match Parser.parse_func text0 with
    | Ok f -> ( try can_finish f with Invalid_argument _ -> false)
    | Error _ -> false
  in
  let cur = ref text0 in
  let steps = ref 0 in
  let idx = ref 0 in
  let accepted_this_round = ref false in
  let running = ref true in
  while !running && !steps < max_steps do
    match attempt ~still_failing ~finish !cur !idx with
    | Accepted t ->
        (* stay at the same index: the edit list just shrank, so the
           slot now holds a different (untried) edit *)
        cur := t;
        incr steps;
        accepted_this_round := true
    | Rejected -> incr idx
    | Exhausted ->
        if !accepted_this_round then begin
          idx := 0;
          accepted_this_round := false
        end
        else running := false
  done;
  let blocks =
    match Parser.parse_func !cur with
    | Ok f -> List.length f.Ssa.blocks_list
    | Error _ -> 0
  in
  { sh_text = !cur; sh_steps = !steps; sh_blocks = blocks }

let minimize_failure (sb : Oracle.subject) (fl : Oracle.failure) =
  let open Oracle in
  let stages = List.filter (fun (name, _) -> name = fl.fl_stage) stages in
  (* only spend simulations on warp sizes that can reproduce it *)
  let warps =
    if String.starts_with ~prefix:"warp=64" fl.fl_detail then [ 64 ]
    else warp_sizes
  in
  let still_failing text =
    subject_of_text ~name:sb.sb_name ~block_size:sb.sb_block_size ~n:sb.sb_n
      ~input_seed:sb.sb_input_seed text
    |> run_subject ~stages ~warps
    |> List.exists (fun f -> failure_key f = failure_key fl)
  in
  match sb.sb_fresh () with
  | exception Failure _ -> None
  | f0 ->
      let r = minimize ~still_failing (Printer.func_to_string f0) in
      Some
        ( r,
          {
            Corpus.en_name =
              String.map (function '+' -> '-' | c -> c) sb.sb_name;
            en_seed = sb.sb_input_seed;
            en_block_size = sb.sb_block_size;
            en_n = sb.sb_n;
            en_input_seed = sb.sb_input_seed;
            en_expect = Corpus.Fail { stage = fl.fl_stage; kind = fl.fl_kind };
            en_note =
              Some
                (Printf.sprintf
                   "shrunk by darm_opt fuzz --minimize in %d steps" r.sh_steps);
            en_text = r.sh_text;
          } )
