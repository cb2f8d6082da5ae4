(** Dead-code elimination: removes instructions without side effects
    whose results are unused, then the operands each removal left
    unused, off a worklist. *)

open Darm_ir
open Darm_ir.Ssa

let run (f : func) : bool =
  let changed = ref false in
  let work = Stack.create () in
  let try_remove (i : instr) =
    match i.parent with
    | Some b
      when b.bparent <> None
           && (not (Op.has_side_effect i.op))
           && (not (Op.is_terminator i.op))
           && users i = [] ->
        remove_instr b i;
        changed := true;
        Array.iter (function Instr d -> Stack.push d work | _ -> ()) i.operands
    | Some _ | None -> ()
  in
  iter_instrs f try_remove;
  while not (Stack.is_empty work) do
    try_remove (Stack.pop work)
  done;
  !changed
