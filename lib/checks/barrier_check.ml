(** Barrier-divergence checker: forward dataflow of open divergent
    branches, closed at the branch's immediate post-dominator. *)

open Darm_ir
open Darm_ir.Ssa
module Divergence = Darm_analysis.Divergence
module Domtree = Darm_analysis.Domtree
module Cfg = Darm_analysis.Cfg
module IntSet = Set.Make (Int)

let id_barrier_divergence = "barrier-divergence"

module Solver = Dataflow.Forward (struct
  type t = IntSet.t

  let equal = IntSet.equal
  let join = IntSet.union
end)

type t = {
  result : Solver.result;
  block_of_id : (int, block) Hashtbl.t;
  pdt : Domtree.t;
  diags : Diag.t list;
}

(* open branches surviving into [b]: a branch block [c] reconverges —
   and its entry is removed — exactly when [b] is [c]'s immediate
   post-dominator.  [idom pdt c = None] means [c] reconverges only at
   the virtual exit, i.e. never in a real block. *)
let close_at (block_of_id : (int, block) Hashtbl.t) (pdt : Domtree.t)
    (b : block) (fact : IntSet.t) : IntSet.t =
  IntSet.filter
    (fun cid ->
      match Hashtbl.find_opt block_of_id cid with
      | None -> true
      | Some c -> (
          match Domtree.idom pdt c with
          | Some p -> p.bid <> b.bid
          | None -> true))
    fact

let analyze ?dvg ?pdt (f : func) : t =
  let dvg = match dvg with Some d -> d | None -> Divergence.compute f in
  let pdt = match pdt with Some p -> p | None -> Domtree.compute_post f in
  let block_of_id = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace block_of_id b.bid b) f.blocks_list;
  let transfer (b : block) (fact : IntSet.t) : IntSet.t =
    let fact = close_at block_of_id pdt b fact in
    if Divergence.is_divergent_branch dvg b then IntSet.add b.bid fact
    else fact
  in
  let result =
    Solver.solve ~entry:IntSet.empty ~init:IntSet.empty ~transfer f
  in
  let diags = ref [] in
  List.iter
    (fun b ->
      let open_set =
        close_at block_of_id pdt b (Solver.block_in result b)
      in
      if not (IntSet.is_empty open_set) then
        List.iter
          (fun i ->
            if i.op = Op.Syncthreads then begin
              let culprits =
                IntSet.elements open_set
                |> List.filter_map (Hashtbl.find_opt block_of_id)
                |> List.map (fun c -> c.bname)
                |> String.concat ", "
              in
              diags :=
                Diag.make ~id:id_barrier_divergence ~severity:Diag.Error
                  ~func:f ~block:b ~instr:i
                  (Printf.sprintf
                     "syncthreads is control-dependent on divergent \
                      branch(es) at %s; not all threads of the block \
                      are guaranteed to reach it"
                     culprits)
                :: !diags
            end)
          b.instrs)
    (Cfg.reachable_blocks f);
  { result; block_of_id; pdt; diags = List.rev !diags }

let diags (t : t) : Diag.t list = t.diags

let open_in (t : t) (b : block) : block list =
  close_at t.block_of_id t.pdt b (Solver.block_in t.result b)
  |> IntSet.elements
  |> List.filter_map (Hashtbl.find_opt t.block_of_id)
