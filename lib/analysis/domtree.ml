(** Dominator and post-dominator trees: the queries the analyses and
    the pass ask of {!Darm_ir.Dom}, the dominator implementation shared
    with the IR verifier. *)

open Darm_ir
open Darm_ir.Ssa

type t = Dom.t

let compute (f : func) : t =
  Dom.compute ~is_post:false ~preds:(predecessors f) f

let compute_post (f : func) : t =
  Dom.compute ~is_post:true ~preds:(predecessors f) f

let node (t : t) (b : block) : int option =
  Hashtbl.find_opt t.Dom.index_of b.bid

(** Immediate (post-)dominator of [b]; [None] for the root, for blocks
    whose immediate post-dominator is the virtual exit, and for
    unreachable blocks. *)
let idom (t : t) (b : block) : block option =
  match node t b with
  | None -> None
  | Some v ->
      if v = 0 then None
      else
        let p = t.Dom.idom.(v) in
        if p < 0 then None else t.Dom.node_block.(p)

let dominates = Dom.dominates

let strictly_dominates (t : t) (a : block) (b : block) : bool =
  a.bid <> b.bid && dominates t a b

(* A node's immediate-dominator fact as comparable data: [None] =
   dominated by the root (entry, or the virtual exit for post-dominator
   trees) or unreachable in the dominance direction; [Some bid] = the
   parent block.  The tin/tout numbering is derived from this relation,
   so comparing it per block compares the whole tree. *)
let idom_fact (t : t) (v : int) : int option =
  if v = 0 then None
  else
    let p = t.Dom.idom.(v) in
    if p < 0 then None
    else match t.Dom.node_block.(p) with None -> None | Some b -> Some b.bid

(** Structural equality of two trees over the same function: same node
    set (block ids) and same immediate-dominator relation. *)
let equal (a : t) (b : t) : bool =
  a.Dom.is_post = b.Dom.is_post
  && Hashtbl.length a.Dom.index_of = Hashtbl.length b.Dom.index_of
  && Hashtbl.fold
       (fun bid va acc ->
         acc
         &&
         match Hashtbl.find_opt b.Dom.index_of bid with
         | None -> false
         | Some vb -> idom_fact a va = idom_fact b vb)
       a.Dom.index_of true

(** For an instruction-level dominance query: does the definition [def]
    dominate a use at instruction [use]?  Same-block positions are
    resolved by instruction order. *)
let instr_dominates (t : t) (def : instr) (use : instr) : bool =
  match def.parent, use.parent with
  | Some db, Some ub ->
      if db.bid = ub.bid then begin
        let rec scan = function
          | [] -> false
          | i :: tl ->
              if i.id = def.id then true
              else if i.id = use.id then false
              else scan tl
        in
        scan db.instrs
      end
      else dominates t db ub
  | _ -> false
