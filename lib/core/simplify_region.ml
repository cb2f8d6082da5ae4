(** Region simplification (paper Definition 4): rewrite each SESE
    subgraph so that it has a {e single, dedicated, unconditional} exit
    edge, and so that its entry has a unique external predecessor.

    After simplification:
    - [sg_exit_src] is a block whose only instruction besides phis is
      [br sg_exit_dest], and it is the only subgraph block with an edge
      to [sg_exit_dest];
    - the phis of [sg_exit_dest] have exactly one incoming entry from the
      subgraph (via [sg_exit_src]).

    This mirrors the paper's conversion of regions into simple regions
    with fresh entry/exit blocks and makes the melding code generation
    uniform: the melded exit is always an unconditional branch that can
    be replaced by [condbr C, B_T', B_F']. *)

open Darm_ir
open Darm_ir.Ssa

(** Insert a fresh block [q] between a set of edges [srcs -> dest]:
    every [src] in [srcs] is redirected to [q] and [q] branches to
    [dest].  Phi nodes in [dest] are split: the entries for [srcs] move
    into a new phi in [q].  Returns [q]. *)
let split_edges (f : func) ~(srcs : block list) ~(dest : block)
    ~(name : string) : block =
  let q = mk_block name in
  append_block f q;
  let src_ids = List.map (fun b -> b.bid) srcs in
  List.iter
    (fun phi ->
      let from_srcs, others =
        List.partition
          (fun (_, blk) -> List.mem blk.bid src_ids)
          (phi_incoming phi)
      in
      match from_srcs with
      | [] -> ()
      | [ (v, _) ] -> set_phi_incoming phi (others @ [ (v, q) ])
      | _ :: _ :: _ ->
          let merged = mk_instr Op.Phi [||] [||] phi.ty in
          prepend_instr q merged;
          set_phi_incoming merged from_srcs;
          set_phi_incoming phi (others @ [ (Instr merged, q) ]))
    (phis dest);
  append_instr q (mk_instr Op.Br [||] [| dest |] Types.Void);
  List.iter (fun src -> redirect_edge src ~old_dest:dest ~new_dest:q) srcs;
  q

(** Blocks of [sg] with an edge to [sg_exit_dest]. *)
let exit_sources (sg : Region.subgraph) : block list =
  List.filter
    (fun b ->
      List.exists (fun s -> s.bid = sg.sg_exit_dest.bid) (successors b))
    (Region.subgraph_block_list sg)

(** Normalize the exit of [sg]: afterwards [sg_exit_src] is a dedicated
    block holding only [br sg_exit_dest].  Returns the (possibly
    updated) subgraph. *)
let normalize_exit (f : func) (sg : Region.subgraph) :
    Region.subgraph =
  match exit_sources sg with
  | [] ->
      invalid_arg "Simplify_region.normalize_exit: subgraph has no exit edge"
  | srcs ->
      (* Always introduce the dedicated exit block, even for a unique
         unconditional source: melding normalizes both subgraphs of a
         pair, and an unconditional insertion keeps the two sides
         isomorphic to each other. *)
      let q =
        split_edges f ~srcs ~dest:sg.sg_exit_dest ~name:"meld.exit"
      in
      Hashtbl.replace sg.sg_blocks q.bid q;
      { sg with sg_exit_src = q }

(** Unique external predecessor of the subgraph entry; splits the edge
    when the entry has several external predecessors or when an external
    predecessor also reaches other blocks (shared entry from the region
    entry's conditional branch). *)
let normalize_entry (f : func) (sg : Region.subgraph) :
    Region.subgraph * block =
  let external_preds =
    List.filter (fun p -> not (Region.in_subgraph sg p)) (preds sg.sg_entry)
  in
  match external_preds with
  | [ p ]
    when (terminator p).op = Op.Br ->
      (sg, p)
  | [] ->
      invalid_arg "Simplify_region.normalize_entry: entry has no external pred"
  | ps ->
      (* Either several external predecessors, or a single one arriving
         via a conditional branch (e.g. the region entry E): insert a
         dedicated pre-entry block. *)
      let q =
        split_edges f ~srcs:ps ~dest:sg.sg_entry ~name:"meld.pre"
      in
      (sg, q)
