(** GPU divergence analysis (data and sync dependence).  See the
    interface for the rules. *)

open Darm_ir
open Darm_ir.Ssa

type t = { divergent : (int, unit) Hashtbl.t  (** divergent instruction ids *) }

let is_divergent_instr (t : t) (i : instr) = Hashtbl.mem t.divergent i.id

let is_divergent_value (t : t) (v : value) =
  match v with
  | Instr i -> is_divergent_instr t i
  | Int _ | Bool _ | Float _ | Undef _ | Param _ -> false

(** A conditional branch whose condition is thread-dependent. *)
let is_divergent_branch (t : t) (b : block) : bool =
  has_terminator b
  &&
  let term = terminator b in
  term.op = Op.Condbr && is_divergent_value t term.operands.(0)

(** Multi-predecessor blocks on paths from the successors of [b] that
    stop at (and include) [b]'s immediate post-dominator — the sync
    joins of a branch at [b]. *)
let sync_joins (pdt : Domtree.t) (b : block) : block list =
  let is_join blk = List.length (preds blk) >= 2 in
  match Domtree.idom pdt b with
  | None ->
      (* No post-dominator (e.g. divergence straight to exit): every
         multi-pred block reachable from b is potentially a join. *)
      List.filter is_join (Cfg.reachable_without b ~stop:[])
  | Some m ->
      let region =
        List.concat_map
          (fun s -> Cfg.reachable_without s ~stop:[ m ])
          (successors b)
      in
      let joins = List.filter is_join region in
      let dedup = Hashtbl.create 8 in
      let out = ref [ m ] in
      Hashtbl.replace dedup m.bid ();
      List.iter
        (fun j ->
          if not (Hashtbl.mem dedup j.bid) then begin
            Hashtbl.replace dedup j.bid ();
            out := j :: !out
          end)
        joins;
      !out

(* One worklist along def-use edges: a value is divergent once any
   operand is, and a divergent [condbr] marks the phis of its sync
   joins. *)
let compute (f : func) : t =
  computed f ~kind:"divergence";
  let pdt = Dom.tree ~is_post:true f in
  let divergent = Hashtbl.create 64 in
  let work = Stack.create () in
  let mark i =
    if not (Hashtbl.mem divergent i.id) then begin
      Hashtbl.replace divergent i.id ();
      Stack.push i work
    end
  in
  (* The joins of a branch depend only on the CFG and the
     post-dominator tree — not on which values are divergent — so one
     joins list per branch serves the whole analysis. *)
  let joins_memo : (int, block list) Hashtbl.t = Hashtbl.create 16 in
  let joins_of (b : block) : block list =
    match Hashtbl.find_opt joins_memo b.bid with
    | Some js -> js
    | None ->
        let js = sync_joins pdt b in
        Hashtbl.replace joins_memo b.bid js;
        js
  in
  iter_instrs f (fun i -> if i.op = Op.Thread_idx then mark i);
  while not (Stack.is_empty work) do
    let i = Stack.pop work in
    (match i.op, i.parent with
    | Op.Condbr, Some b when terminator b == i ->
        List.iter (fun join -> List.iter mark (phis join)) (joins_of b)
    | _ -> ());
    List.iter mark (users i)
  done;
  { divergent }

(** Sorted ids of the divergent instructions — the analysis result as
    plain data. *)
let divergent_ids (t : t) : int list =
  Hashtbl.fold (fun id () acc -> id :: acc) t.divergent []
  |> List.sort compare

(** Result equality: same divergent-instruction set. *)
let equal (a : t) (b : t) : bool =
  Hashtbl.length a.divergent = Hashtbl.length b.divergent
  && divergent_ids a = divergent_ids b

(** Blocks ending in a divergent conditional branch. *)
let divergent_branches (t : t) (f : func) : block list =
  List.filter (is_divergent_branch t) (Cfg.reachable_blocks f)

let report (t : t) (f : func) : string =
  let names = Printer.assign_names f in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "divergence report for @%s:\n" f.fname);
  iter_instrs f (fun i ->
      if not (Types.equal i.ty Types.Void) then
        Buffer.add_string buf
          (Printf.sprintf "  %s : %s\n"
             (Printer.value_str names (Instr i))
             (if is_divergent_instr t i then "divergent" else "uniform")));
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "  branch in %s : divergent\n" b.bname))
    (divergent_branches t f);
  Buffer.contents buf
