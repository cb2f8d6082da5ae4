(** CFG traversal utilities shared by the analyses. *)

open Darm_ir.Ssa

(** Blocks reachable from the entry, in depth-first preorder. *)
let reachable_blocks (f : func) : block list =
  computed f ~kind:"reachable";
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  let rec dfs b =
    if not (Hashtbl.mem seen b.bid) then begin
      Hashtbl.replace seen b.bid ();
      acc := b :: !acc;
      List.iter dfs (successors b)
    end
  in
  dfs (entry_block f);
  List.rev !acc

(** Reverse postorder over reachable blocks — the canonical iteration
    order for forward dataflow. *)
let reverse_postorder (f : func) : block list =
  let seen = Hashtbl.create 32 in
  let post = ref [] in
  let rec dfs b =
    if not (Hashtbl.mem seen b.bid) then begin
      Hashtbl.replace seen b.bid ();
      List.iter dfs (successors b);
      post := b :: !post
    end
  in
  dfs (entry_block f);
  !post

(** Blocks reachable from [src] without entering any block in [stop]
    (the [stop] blocks themselves are not included).  [src] is included
    (unless it is in [stop]). *)
let reachable_without (src : block) ~(stop : block list) : block list =
  let stop_ids = List.map (fun b -> b.bid) stop in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec dfs b =
    if (not (List.mem b.bid stop_ids)) && not (Hashtbl.mem seen b.bid) then begin
      Hashtbl.replace seen b.bid ();
      acc := b :: !acc;
      List.iter dfs (successors b)
    end
  in
  dfs src;
  List.rev !acc

(** Remove blocks not reachable from the entry; incoming phi entries from
    removed blocks are dropped. *)
let remove_unreachable (f : func) : bool =
  let reach = reachable_blocks f in
  let keep = Hashtbl.create 32 in
  List.iter (fun b -> Hashtbl.replace keep b.bid ()) reach;
  let dead = List.filter (fun b -> not (Hashtbl.mem keep b.bid)) f.blocks_list in
  if dead = [] then false
  else begin
    List.iter
      (fun live ->
        List.iter (fun d -> phi_remove_incoming live ~pred:d) dead)
      reach;
    List.iter (fun d -> remove_block f d) dead;
    true
  end

(** All blocks ending in [Ret]. *)
let exit_blocks (f : func) : block list =
  List.filter
    (fun b -> has_terminator b && (terminator b).op = Darm_ir.Op.Ret)
    f.blocks_list
