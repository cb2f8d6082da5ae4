(** Constant folding of individual instructions. *)

open Darm_ir
open Darm_ir.Ssa

(** Try to fold [i] to a constant value.  Integer arithmetic goes
    through {!I32}, as the simulator's does, so folding a computation
    can never change what the machine would have computed. *)
let fold_instr (i : instr) : value option =
  match i.op, Array.to_list i.operands with
  | Op.Ibin op, [ Int x; Int y ] ->
      Option.map (fun v -> Int v) (I32.eval op x y)
  (* algebraic identities *)
  | Op.Ibin Op.Add, [ v; Int 0 ] | Op.Ibin Op.Add, [ Int 0; v ] -> Some v
  | Op.Ibin Op.Sub, [ v; Int 0 ] -> Some v
  | Op.Ibin Op.Mul, [ v; Int 1 ] | Op.Ibin Op.Mul, [ Int 1; v ] -> Some v
  | Op.Ibin Op.Mul, [ _; Int 0 ] | Op.Ibin Op.Mul, [ Int 0; _ ] -> Some (Int 0)
  | Op.Icmp p, [ Int x; Int y ] -> Some (Bool (I32.compare_i32 p x y))
  | Op.Not, [ Bool b ] -> Some (Bool (not b))
  | Op.Select, [ Bool true; tv; _ ] -> Some tv
  | Op.Select, [ Bool false; _; fv ] -> Some fv
  | Op.Select, [ _; tv; fv ] when value_equal tv fv -> Some tv
  | _ -> None

(** Fold everything foldable in [f]; returns [true] if anything changed.
    Folded instructions become dead and are left for {!Dce}. *)
let run (f : func) : bool =
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    iter_instrs f (fun i ->
        match fold_instr i with
        | Some v ->
            replace_all_uses i v;
            (match i.parent with Some b -> remove_instr b i | None -> ());
            progress := true;
            changed := true
        | None -> ())
  done;
  !changed
