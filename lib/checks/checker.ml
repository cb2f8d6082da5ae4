(** Checker orchestration.  See the interface for the pipeline. *)

open Darm_ir
module J = Darm_obs.Json

let id_invalid_ir = "invalid-ir"

type report = {
  kernel : string;
  diags : Diag.t list;
  verdict : Race_check.verdict;
}

let check_func (f : Ssa.func) : report =
  match Verify.check f with
  | _ :: _ as errs ->
      {
        kernel = f.Ssa.fname;
        diags =
          List.map
            (fun (e : Verify.error) ->
              Diag.make ~id:id_invalid_ir ~severity:Diag.Error ~func:f
                e.Verify.msg)
            errs;
        verdict = Race_check.Unknown;
      }
  | [] ->
      (* one barrier-divergence run feeds both its own diagnostics and
         the race checker (which previously recomputed it) *)
      let bdiv = Barrier_check.analyze f in
      let race = Race_check.analyze ~bdiv f in
      let hygiene = Hygiene.check f in
      let diags =
        List.sort Diag.compare
          (Barrier_check.diags bdiv @ Race_check.diags race @ hygiene)
      in
      { kernel = f.Ssa.fname; diags; verdict = Race_check.verdict race }

let errors (r : report) : Diag.t list = List.filter Diag.is_error r.diags

let warnings (r : report) : Diag.t list =
  List.filter (fun d -> d.Diag.severity = Diag.Warning) r.diags

(* multiset of error ids *)
let error_counts (r : report) : (string, int) Hashtbl.t =
  let t = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let id = d.Diag.id in
      Hashtbl.replace t id (1 + Option.value ~default:0 (Hashtbl.find_opt t id)))
    (errors r);
  t

let new_errors ~(before : report) ~(after : report) : Diag.t list =
  let old = error_counts before in
  let taken = Hashtbl.create 8 in
  List.filter
    (fun d ->
      let id = d.Diag.id in
      let budget = Option.value ~default:0 (Hashtbl.find_opt old id) in
      let used = Option.value ~default:0 (Hashtbl.find_opt taken id) in
      Hashtbl.replace taken id (used + 1);
      used >= budget)
    (errors after)

let report_to_string (r : report) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "@%s: %d error(s), %d warning(s), races: %s\n" r.kernel
       (List.length (errors r))
       (List.length (warnings r))
       (Race_check.verdict_to_string r.verdict));
  List.iter
    (fun d -> Buffer.add_string buf ("  " ^ Diag.to_string d ^ "\n"))
    r.diags;
  Buffer.contents buf

(* "schema" is the convention-unified key (doc/schemas.md); "format"
   predates it and stays as a deprecated alias until darm-check-v2 *)
let report_to_json (r : report) : J.t =
  J.Obj
    [
      ("schema", J.Str "darm-check-v1");
      ("format", J.Str "darm-check-v1");
      ("kernel", J.Str r.kernel);
      ("verdict", J.Str (Race_check.verdict_to_string r.verdict));
      ("errors", J.Int (List.length (errors r)));
      ("warnings", J.Int (List.length (warnings r)));
      ("diagnostics", J.List (List.map Diag.to_json r.diags));
    ]
