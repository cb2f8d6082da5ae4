(** The dominator implementation shared by {!Verify} and
    [Darm_analysis.Domtree]; see the interface for the algorithm. *)

open Ssa

type t = {
  index_of : (int, int) Hashtbl.t;
  node_block : block option array;
  idom : int array;
  tin : int array;
  tout : int array;
  is_post : bool;
}

(* CHK over nodes 0..n-1 with root 0: [dpreds] in the dominance
   direction, [rpo] a reverse postorder from the root.  Nodes the root
   does not reach keep idom -1. *)
let chk_idoms ~(n : int) ~(dpreds : int list array) ~(rpo : int list) :
    int array =
  let rpo_num = Array.make n (-1) in
  List.iteri (fun k v -> rpo_num.(v) <- k) rpo;
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> 0 then begin
          let processed = List.filter (fun p -> idom.(p) >= 0) dpreds.(b) in
          match processed with
          | [] -> ()
          | p0 :: rest ->
              let new_idom = List.fold_left intersect p0 rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  idom

let compute ~(is_post : bool) (f : func) : t =
  computed f ~kind:(if is_post then "postdomtree" else "domtree");
  (* Nodes: the blocks reachable from the entry in depth-first preorder,
     after node 0 = the virtual exit for the post-dominator tree. *)
  let base = if is_post then 1 else 0 in
  let index_of = Hashtbl.create 64 in
  let reach = ref [] in
  let rec visit b =
    if not (Hashtbl.mem index_of b.bid) then begin
      Hashtbl.replace index_of b.bid (Hashtbl.length index_of + base);
      reach := b :: !reach;
      List.iter visit (successors b)
    end
  in
  visit (entry_block f);
  let n = Hashtbl.length index_of + base in
  let node_block =
    Array.of_list
      ((if is_post then [ None ] else []) @ List.rev_map Option.some !reach)
  in
  (* Edges in the *dominance* direction: for dominators, preds = CFG
     preds; for post-dominators, preds = CFG succs, and every Ret block
     has the virtual exit as a successor (edge exit -> ret in the
     reversed graph). *)
  let dpreds = Array.make n [] and dsuccs = Array.make n [] in
  let nodes = List.filter_map (fun b -> Hashtbl.find_opt index_of b.bid) in
  List.iter
    (fun b ->
      let bi = Hashtbl.find index_of b.bid in
      let cfg_preds = nodes (preds b) in
      let cfg_succs = nodes (successors b) in
      if is_post then begin
        dpreds.(bi) <- cfg_succs;
        dsuccs.(bi) <- cfg_preds;
        if has_terminator b && (terminator b).op = Op.Ret then begin
          dpreds.(bi) <- 0 :: dpreds.(bi);
          dsuccs.(0) <- bi :: dsuccs.(0)
        end
      end
      else begin
        dpreds.(bi) <- cfg_preds;
        dsuccs.(bi) <- cfg_succs
      end)
    (List.rev !reach);
  (* RPO from the root over the dominance-direction graph. *)
  let visited = Array.make n false in
  let post = ref [] in
  let rec dfs v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter dfs dsuccs.(v);
      post := v :: !post
    end
  in
  dfs 0;
  let idom = chk_idoms ~n ~dpreds ~rpo:!post in
  (* Tree children + interval numbering. *)
  let children = Array.make n [] in
  Array.iteri
    (fun v p -> if v <> 0 && p >= 0 then children.(p) <- v :: children.(p))
    idom;
  let tin = Array.make n 0 and tout = Array.make n 0 in
  let clock = ref 0 in
  let rec number v =
    incr clock;
    tin.(v) <- !clock;
    List.iter number children.(v);
    incr clock;
    tout.(v) <- !clock
  in
  number 0;
  { index_of; node_block; idom; tin; tout; is_post }

type fact += Tree of t

let tree ~(is_post : bool) (f : func) : t =
  cached f
    ~kind:(if is_post then "postdomtree" else "domtree")
    (function Tree t when t.is_post = is_post -> Some t | _ -> None)
    ~keep:(fun t -> Some (Tree t))
    (fun () -> compute ~is_post f)

let dominates (t : t) (a : block) (b : block) : bool =
  let node b = Hashtbl.find_opt t.index_of b.bid in
  match node a, node b with
  | Some va, Some vb ->
      t.idom.(va) >= 0 && t.idom.(vb) >= 0
      && t.tin.(va) <= t.tin.(vb)
      && t.tout.(vb) <= t.tout.(va)
  | _ -> false
