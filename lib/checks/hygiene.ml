(** IR hygiene lints.  See the interface for the rule list. *)

open Darm_ir
open Darm_ir.Ssa
module IntSet = Set.Make (Int)

let id_undef_operand = "undef-operand"
let id_undef_trap = "undef-trap-hazard"
let id_alloc_outside_entry = "alloc-shared-outside-entry"

let check (f : func) : Diag.t list =
  let diags = ref [] in
  let add ~id ~severity b i msg =
    diags := Diag.make ~id ~severity ~func:f ~block:b ~instr:i msg :: !diags
  in
  let entry = entry_block f in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          let is_undef k =
            Array.length i.operands > k
            && match i.operands.(k) with Undef _ -> true | _ -> false
          in
          (* undef hazards *)
          let trap_positions =
            match i.op with
            | Op.Load -> [ (0, "load address") ]
            | Op.Store -> [ (1, "store address") ]
            | Op.Condbr -> [ (0, "branch condition") ]
            | Op.Ibin (Op.Sdiv | Op.Srem) -> [ (1, "divisor") ]
            | _ -> []
          in
          let trapped = ref IntSet.empty in
          List.iter
            (fun (k, what) ->
              if is_undef k then begin
                trapped := IntSet.add k !trapped;
                add ~id:id_undef_trap ~severity:Diag.Error b i
                  (Printf.sprintf "undef used as %s: the simulator traps here"
                     what)
              end)
            trap_positions;
          (match i.op with
          | Op.Phi | Op.Select -> ()
          | _ ->
              Array.iteri
                (fun k v ->
                  match v with
                  | Undef _ when not (IntSet.mem k !trapped) ->
                      add ~id:id_undef_operand ~severity:Diag.Warning b i
                        (Printf.sprintf
                           "undef operand %d of %s: result is poison" k
                           (Op.to_string i.op))
                  | _ -> ())
                i.operands);
          (* shared allocation placement *)
          match i.op with
          | Op.Alloc_shared _ when b.bid <> entry.bid ->
              add ~id:id_alloc_outside_entry ~severity:Diag.Error b i
                "alloc.shared outside the entry block: shared memory must \
                 be allocated unconditionally"
          | _ -> ())
        b.instrs)
    f.blocks_list;
  List.rev !diags
