(** Lowering Mini-HIP ASTs to SSA through {!Darm_ir.Dsl}, with a
    lightweight type checker (int/float/bool scalars, pointer arrays);
    short-circuit [&&]/[||] and the ternary operator lower to real
    branches so only the C-mandated operands evaluate. *)

open Darm_ir

exception Error of string

(** Compile a Mini-HIP source string into a verified IR module. *)
val compile : name:string -> string -> (Ssa.modul, string) result
