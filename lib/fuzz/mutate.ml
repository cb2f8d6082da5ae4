(** Seeded-bug injection (IR-level surgery on the exit block). *)

open Darm_ir
open Darm_ir.Ssa

type bug = Xbar | Xrace | Xrw

let all = [ Xbar; Xrace; Xrw ]

let tag = function Xbar -> "XBAR" | Xrace -> "XRACE" | Xrw -> "XRW"

let of_tag s =
  match String.uppercase_ascii (String.trim s) with
  | "XBAR" -> Some Xbar
  | "XRACE" -> Some Xrace
  | "XRW" -> Some Xrw
  | _ -> None

let find_ret_block (f : func) : block option =
  List.find_opt
    (fun b -> has_terminator b && (terminator b).op = Op.Ret)
    f.blocks_list

(* The thread index, guaranteed to dominate every block: reuse an
   entry-block [thread.idx] or mint one at the top of the entry. *)
let entry_tid (f : func) : value =
  let entry = entry_block f in
  match List.find_opt (fun i -> i.op = Op.Thread_idx) (body entry) with
  | Some i -> Instr i
  | None ->
      let i = mk_instr Op.Thread_idx [||] [||] Types.I32 in
      insert_after_phis entry i;
      Instr i

let find_shared (f : func) : value option =
  let found = ref None in
  iter_instrs f (fun i ->
      match i.op with
      | Op.Alloc_shared _ when !found = None -> found := Some (Instr i)
      | _ -> ());
  !found

let inject (bug : bug) (f : func) : (unit, string) result =
  match find_ret_block f with
  | None -> Error "no ret exit block to mutate"
  | Some exit_b -> (
      let ret = terminator exit_b in
      let tid = entry_tid f in
      let bld = Builder.create f in
      match bug with
      | Xbar ->
          (* guard a fresh barrier by [tid < 16]: the canonical
             barrier-under-divergence deadlock *)
          remove_instr exit_b ret;
          let sb = Builder.add_block bld "xbar_sync" in
          let join = Builder.add_block bld "xbar_join" in
          Builder.position_at_end bld exit_b;
          let cond = Builder.ins_icmp bld Op.Islt tid (Builder.i32 16) in
          Builder.ins_condbr bld cond sb join;
          Builder.position_at_end bld sb;
          Builder.ins_syncthreads bld;
          Builder.ins_br bld join;
          Builder.position_at_end bld join;
          Builder.ins_ret bld;
          Ok ()
      | Xrace -> (
          match find_shared f with
          | None -> Error "no shared array to race on"
          | Some s ->
              (* thread t writes s[t] and s[t+1]: overlapping stores in
                 one barrier interval *)
              remove_instr exit_b ret;
              Builder.position_at_end bld exit_b;
              ignore
                (Builder.ins_store bld tid (Builder.ins_gep bld s tid));
              ignore
                (Builder.ins_store bld tid
                   (Builder.ins_gep bld s
                      (Builder.add bld tid (Builder.i32 1))));
              Builder.ins_ret bld;
              Ok ())
      | Xrw -> (
          match (find_shared f, f.params) with
          | None, _ -> Error "no shared array to race on"
          | Some _, ([] | [ _ ]) -> Error "need two pointer parameters"
          | Some s, _ :: pb :: _ ->
              (* thread t writes s[t] then reads s[t+1] — the
                 neighbour's slot — with no barrier in between; the
                 loaded value escapes to global memory so DCE cannot
                 hide the bug *)
              remove_instr exit_b ret;
              Builder.position_at_end bld exit_b;
              ignore
                (Builder.ins_store bld tid (Builder.ins_gep bld s tid));
              let v =
                Builder.ins_load bld
                  (Builder.ins_gep bld s
                     (Builder.add bld tid (Builder.i32 1)))
              in
              ignore
                (Builder.ins_store bld v
                   (Builder.ins_gep bld (Param pb) tid));
              Builder.ins_ret bld;
              Ok ()))
