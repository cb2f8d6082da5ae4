(** Structured diagnostics shared by every checker. *)

type severity = Error | Warning | Info

type t = {
  id : string;
  severity : severity;
  func_name : string;
  block : string option;
  instr_id : int option;
  message : string;
}

let make ~id ~severity ~(func : Darm_ir.Ssa.func) ?block ?instr message : t =
  {
    id;
    severity;
    func_name = func.Darm_ir.Ssa.fname;
    block = Option.map (fun b -> b.Darm_ir.Ssa.bname) block;
    instr_id =
      Option.bind block (fun b ->
          Option.bind instr (Darm_ir.Ssa.site_index b));
    message;
  }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare (a : t) (b : t) : int =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.id b.id in
    if c <> 0 then c
    else
      let c =
        Option.compare String.compare a.block b.block
      in
      if c <> 0 then c
      else Option.compare Int.compare a.instr_id b.instr_id

let is_error (d : t) = d.severity = Error

let to_string (d : t) : string =
  Printf.sprintf "%s[%s] @%s%s: %s"
    (severity_to_string d.severity)
    d.id d.func_name
    (match d.block with Some b -> " block " ^ b | None -> "")
    d.message

let to_json (d : t) : Darm_obs.Json.t =
  let module J = Darm_obs.Json in
  J.Obj
    [
      ("id", J.Str d.id);
      ("severity", J.Str (severity_to_string d.severity));
      ("kernel", J.Str d.func_name);
      ("block", match d.block with Some b -> J.Str b | None -> J.Null);
      ("instr", match d.instr_id with Some i -> J.Int i | None -> J.Null);
      ("message", J.Str d.message);
    ]
