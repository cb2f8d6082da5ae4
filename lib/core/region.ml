(** Meldable divergent regions and their SESE subgraph decomposition
    (paper §IV-A/§IV-B, Definitions 1–5).

    A {e divergent region} is the smallest region enclosing a divergent
    branch: its entry [E] is the block with the branch, its exit [X] is
    [E]'s immediate post-dominator.  The region is {e meldable} when
    neither successor of [E] post-dominates the other (Definition 5), so
    both the true and the false path contain at least one SESE subgraph.

    Each path decomposes into an ordered sequence of SESE subgraphs: the
    {e cut points} of a path are the blocks that post-dominate the path's
    first block; the subgraph between two consecutive cut points is
    either a single basic block or a simple region (Definition 3).  The
    sequence order coincides with the post-dominance order used for
    subgraph alignment (Definition 7). *)

open Darm_ir.Ssa
module Cfg = Darm_analysis.Cfg
module Domtree = Darm_analysis.Domtree
module Divergence = Darm_analysis.Divergence

type subgraph = {
  sg_entry : block;
  sg_blocks : (int, block) Hashtbl.t;  (** includes entry and exit_src *)
  sg_exit_src : block;  (** unique block carrying the exit edge (after
                            {!Simplify_region}); before simplification this
                            is an arbitrary representative *)
  sg_exit_dest : block;  (** the next cut point (not part of the subgraph) *)
}

type t = {
  r_entry : block;   (** E — ends in the divergent conditional branch *)
  r_cond : value;    (** the branch condition C *)
  r_exit : block;    (** X = ipdom(E) *)
  r_t_succ : block;
  r_f_succ : block;
  r_t_side : block list;  (** blocks reachable from the true successor
                              without passing through X *)
  r_f_side : block list;
}

let in_subgraph (s : subgraph) (b : block) = Hashtbl.mem s.sg_blocks b.bid

let subgraph_block_list (s : subgraph) : block list =
  Hashtbl.fold (fun _ b acc -> b :: acc) s.sg_blocks []

let subgraph_size (s : subgraph) = Hashtbl.length s.sg_blocks

(** Side sets must be disjoint and closed: every edge out of a side block
    stays on that side or goes to [X]; every edge into a side block other
    than the side's entry comes from within the side.  This is what makes
    the region transformable without re-routing unrelated control flow. *)
let side_closed ~(side : block list) ~(side_entry : block)
    ~(region_entry : block) ~(exit_ : block) : bool =
  let in_side = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace in_side b.bid ()) side;
  List.for_all
    (fun b ->
      List.for_all
        (fun s -> Hashtbl.mem in_side s.bid || s.bid = exit_.bid)
        (successors b)
      && List.for_all
           (fun p ->
             Hashtbl.mem in_side p.bid
             || (b.bid = side_entry.bid && p.bid = region_entry.bid))
           (preds b))
    side

(** [detect dvg dt pdt b] checks whether [b] is the entry of a
    meldable divergent region (Definition 5) and returns it.  Besides
    the branch conditions, every block of both paths must be dominated
    by [b] and post-dominated by the exit — the defining property of a
    region — which rules out pseudo-regions whose reachability sets leak
    through loop back edges into unrelated control flow. *)
let detect (dvg : Divergence.t) (dt : Domtree.t) (pdt : Domtree.t)
    (b : block) : t option =
  if not (Divergence.is_divergent_branch dvg b) then None
  else
    let term = terminator b in
    let t_succ = term.blocks.(0) and f_succ = term.blocks.(1) in
    match Domtree.idom pdt b with
    | None -> None
    | Some x ->
        if
          t_succ.bid = f_succ.bid || t_succ.bid = x.bid || f_succ.bid = x.bid
          || Domtree.dominates pdt t_succ f_succ
          || Domtree.dominates pdt f_succ t_succ
        then None
        else
          let t_side = Cfg.reachable_without t_succ ~stop:[ x ] in
          let f_side = Cfg.reachable_without f_succ ~stop:[ x ] in
          let disjoint =
            let ids = Hashtbl.create 16 in
            List.iter (fun blk -> Hashtbl.replace ids blk.bid ()) t_side;
            List.for_all (fun blk -> not (Hashtbl.mem ids blk.bid)) f_side
          in
          let dominated side =
            List.for_all
              (fun blk ->
                Domtree.dominates dt b blk && Domtree.dominates pdt x blk)
              side
          in
          if
            disjoint
            && dominated t_side && dominated f_side
            && side_closed ~side:t_side ~side_entry:t_succ ~region_entry:b
                 ~exit_:x
            && side_closed ~side:f_side ~side_entry:f_succ ~region_entry:b
                 ~exit_:x
          then
            Some
              {
                r_entry = b;
                r_cond = term.operands.(0);
                r_exit = x;
                r_t_succ = t_succ;
                r_f_succ = f_succ;
                r_t_side = t_side;
                r_f_side = f_side;
              }
          else None

(** Ordered SESE subgraph sequence of one side of a region.

    Cut points are the side blocks that post-dominate the side's entry;
    consecutive cut points delimit one subgraph.  The returned sequence
    is ordered by post-dominance: earlier subgraphs execute first. *)
let side_subgraphs (pdt : Domtree.t) ~(side : block list)
    ~(side_entry : block) ~(exit_ : block) : subgraph list =
  let cuts =
    List.filter
      (fun v -> v.bid <> side_entry.bid && Domtree.dominates pdt v side_entry)
      side
  in
  (* Total order: u before v iff v post-dominates u. *)
  let sorted =
    List.sort
      (fun u v ->
        if u.bid = v.bid then 0
        else if Domtree.strictly_dominates pdt v u then -1
        else 1)
      cuts
  in
  let cut_seq = (side_entry :: sorted) @ [ exit_ ] in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  List.map
    (fun (c, next_c) ->
      let blocks = Cfg.reachable_without c ~stop:[ next_c ] in
      let tbl = Hashtbl.create 8 in
      List.iter (fun blk -> Hashtbl.replace tbl blk.bid blk) blocks;
      (* representative exit source: any block with an edge to next_c;
         Simplify_region later guarantees uniqueness *)
      let exit_src =
        match
          List.find_opt
            (fun blk ->
              List.exists (fun s -> s.bid = next_c.bid) (successors blk))
            blocks
        with
        | Some blk -> blk
        | None -> c
      in
      {
        sg_entry = c;
        sg_blocks = tbl;
        sg_exit_src = exit_src;
        sg_exit_dest = next_c;
      })
    (pairs cut_seq)

let true_subgraphs (pdt : Domtree.t) (r : t) : subgraph list =
  side_subgraphs pdt ~side:r.r_t_side ~side_entry:r.r_t_succ ~exit_:r.r_exit

let false_subgraphs (pdt : Domtree.t) (r : t) : subgraph list =
  side_subgraphs pdt ~side:r.r_f_side ~side_entry:r.r_f_succ ~exit_:r.r_exit
