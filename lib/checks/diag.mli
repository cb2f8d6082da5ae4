(** Structured diagnostics shared by every checker.

    A diagnostic carries a stable machine-readable [id] (the contract of
    the CI gate and the translation-validation hook — see
    doc/static-analysis.md for the full catalogue), a severity, a
    source location (kernel, block, instruction) and a human-readable
    explanation.  Diagnostics serialize deterministically to JSON via
    {!Darm_obs.Json}, so two runs over the same IR produce identical
    bytes. *)

type severity = Error | Warning | Info

type t = {
  id : string;  (** stable machine-readable identifier, e.g.
                    ["barrier-divergence"], ["shared-race-ww"] *)
  severity : severity;
  func_name : string;
  block : string option;  (** name of the block containing the finding *)
  instr_id : int option;
      (** the offending instruction's {!Darm_ir.Ssa.site_index} in
          [block]: local to the function, so the same IR gives the same
          diagnostic whatever the process built before *)
  message : string;       (** human-readable explanation *)
}

(** [instr] is recorded only with the [block] that lists it. *)
val make :
  id:string ->
  severity:severity ->
  func:Darm_ir.Ssa.func ->
  ?block:Darm_ir.Ssa.block ->
  ?instr:Darm_ir.Ssa.instr ->
  string ->
  t

(** [Error] sorts before [Warning] before [Info]; ties break on id,
    then block name, then the instruction's place in the block — a
    total, deterministic order. *)
val compare : t -> t -> int

val is_error : t -> bool

(** ["error[shared-race-ww] @kern block if.then: ..."] *)
val to_string : t -> string

(** Object with fields [id], [severity], [kernel], [block], [instr],
    [message] in that order (deterministic serialization). *)
val to_json : t -> Darm_obs.Json.t
