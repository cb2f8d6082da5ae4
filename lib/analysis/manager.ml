(** The per-function analysis cache.  See the interface for the cache
    rule. *)

open Darm_ir
open Darm_ir.Ssa

type fact += Reachable of block list | Divergent of Divergence.t

let reachable (f : func) : block list =
  cached f ~kind:"reachable"
    (function Reachable l -> Some l | _ -> None)
    ~keep:(fun l -> Some (Reachable l))
    (fun () -> Cfg.reachable_blocks f)

let domtree (f : func) : Domtree.t = Dom.tree ~is_post:false f
let postdomtree (f : func) : Domtree.t = Dom.tree ~is_post:true f

let divergence (f : func) : Divergence.t =
  cached f ~kind:"divergence"
    (function Divergent d -> Some d | _ -> None)
    ~keep:(fun d -> Some (Divergent d))
    (fun () -> Divergence.compute f)

let computes (f : func) (kind : string) : int =
  List.fold_left
    (fun n c -> if String.equal c.kind kind then n + c.computes else n)
    0 f.fact_counts

let recomputes_avoided (f : func) : int =
  List.fold_left (fun n c -> n + c.reuses) 0 f.fact_counts
