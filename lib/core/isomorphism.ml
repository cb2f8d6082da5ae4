(** Structural matching of SESE subgraphs (paper Definition 6).

    Two subgraphs are meldable when they are isomorphic as rooted,
    edge-ordered CFGs: a simultaneous traversal from the two entries must
    match terminator kinds and successor positions (the true/false arms
    of conditional branches correspond pairwise), and edges leaving the
    subgraphs must leave simultaneously.  The single-block/single-block
    case (Definition 6 case 3) falls out as isomorphism of one-node
    graphs.

    The mixed case (simple region vs. single block, Definition 6 case 2)
    is not melded by this implementation — as in the paper, melding
    non-isomorphic shapes requires restructuring one side and "is usually
    expensive"; the paper's own evaluation only exercises the isomorphic
    cases.

    The simultaneous traversal of a pair succeeds exactly when the two
    subgraphs' own walks emit the same shape, and then visits their
    preorders in lockstep, so one walk per subgraph serves every pair
    it takes part in. *)

open Darm_ir.Ssa

type walk = { shape : string; preorder : block list }

(* DFS from the entry in successor order.  Per block, on its first
   visit: its terminator kind ('B' br, 'C' condbr), then per successor
   'n' and the successor's own encoding when it is new, 'v' and its
   preorder index when it was visited before, or 'x' for the exit.  The
   kind fixes the number of successor tokens, so equal encodings name
   equal edge-ordered graphs with the preorders in correspondence. *)
let walk (sg : Region.subgraph) : walk option =
  let buf = Buffer.create 64 in
  let index : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let preorder = ref [] in
  let exception Unmatchable in
  let rec visit (b : block) =
    Hashtbl.replace index b.bid (Hashtbl.length index);
    preorder := b :: !preorder;
    if not (has_terminator b) then raise Unmatchable;
    let t = terminator b in
    (match t.op, Array.length t.blocks with
    | Darm_ir.Op.Br, 1 -> Buffer.add_char buf 'B'
    | Darm_ir.Op.Condbr, 2 -> Buffer.add_char buf 'C'
    | _ -> raise Unmatchable);
    Array.iter
      (fun s ->
        if Region.in_subgraph sg s then
          match Hashtbl.find_opt index s.bid with
          | Some k ->
              Buffer.add_char buf 'v';
              Buffer.add_string buf (string_of_int k)
          | None ->
              Buffer.add_char buf 'n';
              visit s
        else if s.bid = sg.Region.sg_exit_dest.bid then Buffer.add_char buf 'x'
        else (* an edge leaving anywhere but the exit pairs with none *)
          raise Unmatchable)
      t.blocks
  in
  match visit sg.Region.sg_entry with
  | () when Hashtbl.length index = Region.subgraph_size sg ->
      Some { shape = Buffer.contents buf; preorder = List.rev !preorder }
  | () -> None (* a block the entry does not reach pairs with none *)
  | exception Unmatchable -> None

(** [match_subgraphs s1 s2] returns the block correspondence in pre-order
    (entry first, dominating blocks before dominated ones — the
    linearization order required by Algorithm 2), or [None] when the
    subgraphs are not isomorphic. *)
let match_subgraphs (s1 : Region.subgraph) (s2 : Region.subgraph) :
    (block * block) list option =
  match walk s1, walk s2 with
  | Some w1, Some w2 when String.equal w1.shape w2.shape ->
      Some (List.combine w1.preorder w2.preorder)
  | _ -> None
