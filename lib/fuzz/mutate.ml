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
      let ins ?ty ?targets op operands =
        Builder.ins bld ?ty ?targets op operands
      in
      let store v p = ignore (ins Op.Store [| v; p |]) in
      let slot p k = ins Op.Gep [| p; k |] in
      let next_tid () = ins (Op.Ibin Op.Add) [| tid; Builder.i32 1 |] in
      let add_ret () = ignore (ins Op.Ret [||]) in
      match bug with
      | Xbar ->
          (* guard a fresh barrier by [tid < 16]: the canonical
             barrier-under-divergence deadlock *)
          remove_instr exit_b ret;
          let sb = Builder.add_block bld "xbar_sync" in
          let join = Builder.add_block bld "xbar_join" in
          Builder.position_at_end bld exit_b;
          let cond = ins (Op.Icmp Op.Islt) [| tid; Builder.i32 16 |] in
          ignore (ins ~targets:[| sb; join |] Op.Condbr [| cond |]);
          Builder.position_at_end bld sb;
          ignore (ins Op.Syncthreads [||]);
          ignore (ins ~targets:[| join |] Op.Br [||]);
          Builder.position_at_end bld join;
          add_ret ();
          Ok ()
      | Xrace -> (
          match find_shared f with
          | None -> Error "no shared array to race on"
          | Some s ->
              (* thread t writes s[t] and s[t+1]: overlapping stores in
                 one barrier interval *)
              remove_instr exit_b ret;
              Builder.position_at_end bld exit_b;
              store tid (slot s tid);
              store tid (slot s (next_tid ()));
              add_ret ();
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
              store tid (slot s tid);
              let v = ins ~ty:Types.I32 Op.Load [| slot s (next_tid ()) |] in
              store v (slot (Param pb) tid);
              add_ret ();
              Ok ()))
