(** Natural-loop detection (back edges via the dominator tree). *)

open Darm_ir.Ssa

type loop = {
  header : block;
  latches : block list;    (** sources of back edges into [header] *)
  body : (int, block) Hashtbl.t;  (** all blocks of the loop, incl. header *)
  mutable parent : loop option;
  mutable depth : int;
}

type t = {
  loops : loop list;
  loop_of : (int, loop) Hashtbl.t;  (** block id -> innermost containing loop *)
}

let in_loop (l : loop) (b : block) = Hashtbl.mem l.body b.bid

let blocks_of (l : loop) : block list =
  Hashtbl.fold (fun _ b acc -> b :: acc) l.body []

(** Exiting edges of [l]: pairs (src inside, dest outside). *)
let exit_edges (l : loop) : (block * block) list =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun s -> if in_loop l s then None else Some (b, s))
        (successors b))
    (blocks_of l)

let compute (f : func) : t =
  let dt = Manager.domtree f in
  let reach = Manager.reachable f in
  (* back edge: b -> h where h dominates b *)
  let back_edges =
    List.concat_map
      (fun b ->
        List.filter_map
          (fun s ->
            if Domtree.dominates dt s b then Some (b, s) else None)
          (successors b))
      reach
  in
  (* group back edges by header *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let cur =
        try Hashtbl.find by_header header.bid with Not_found -> (header, [])
      in
      Hashtbl.replace by_header header.bid (header, latch :: snd cur))
    back_edges;
  let loops =
    Hashtbl.fold
      (fun _ (header, latches) acc ->
        (* natural loop body: header + blocks that reach a latch without
           passing through the header *)
        let body = Hashtbl.create 16 in
        Hashtbl.replace body header.bid header;
        let rec pull b =
          if not (Hashtbl.mem body b.bid) then begin
            Hashtbl.replace body b.bid b;
            List.iter pull (preds b)
          end
        in
        List.iter pull latches;
        { header; latches; body; parent = None; depth = 1 } :: acc)
      by_header []
  in
  (* nesting: loop A is inside loop B if B's body contains A's header and
     A != B; the innermost such B is the parent *)
  List.iter
    (fun a ->
      let candidates =
        List.filter
          (fun b -> b != a && Hashtbl.mem b.body a.header.bid)
          loops
      in
      let innermost =
        List.fold_left
          (fun best c ->
            match best with
            | None -> Some c
            | Some b ->
                if Hashtbl.length c.body < Hashtbl.length b.body then Some c
                else Some b)
          None candidates
      in
      a.parent <- innermost)
    loops;
  let rec depth_of l =
    match l.parent with None -> 1 | Some p -> 1 + depth_of p
  in
  List.iter (fun l -> l.depth <- depth_of l) loops;
  let loop_of = Hashtbl.create 32 in
  List.iter
    (fun l ->
      Hashtbl.iter
        (fun bid _ ->
          match Hashtbl.find_opt loop_of bid with
          | Some prev when prev.depth >= l.depth -> ()
          | _ -> Hashtbl.replace loop_of bid l)
        l.body)
    loops;
  { loops; loop_of }

let innermost_loop (t : t) (b : block) : loop option =
  Hashtbl.find_opt t.loop_of b.bid

let loop_depth (t : t) (b : block) : int =
  match innermost_loop t b with None -> 0 | Some l -> l.depth
