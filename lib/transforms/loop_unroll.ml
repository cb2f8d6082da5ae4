(** Full unrolling of simple counted loops.

    The paper's pipeline relies on HIPCC's aggressive unrolling: bitonic
    sort's meldable region appears in every unrolled instance of the
    inner loop body (Fig. 5a "the resulting CFG consists of multiple
    repeated segments"), and PCM's multiple isomorphic subgraphs per path
    come from unrolled loops (§VI-E).  This pass provides the same
    enabling transformation.

    A loop is unrollable when:
    - it is a natural loop whose header is the only exiting block
      (the shape the {!Darm_ir.Dsl} while/for constructs emit);
    - the header has exactly two predecessors (preheader and a unique
      latch);
    - the exit condition is [icmp pred (phi iv) (const)] with [iv]'s
      initial value and its step both constant, so the trip count is a
      compile-time constant [n <= max_trip].

    Unrolling replaces the loop with [n] cloned copies of its blocks in
    sequence; loop-carried phis become direct value substitutions, and
    uses of loop values after the loop are rewired to the last
    iteration's clones. *)

open Darm_ir
open Darm_ir.Ssa
module Loops = Darm_analysis.Loops

type counted_loop = {
  cl_loop : Loops.loop;
  cl_preheader : block;
  cl_latch : block;
  cl_exit : block;        (** the header's out-of-loop successor *)
  cl_body_entry : block;  (** the header's in-loop successor *)
  cl_trip : int;
}

(* Evaluate the trip count of [icmp pred iv bound] where iv starts at
   [init] and is updated by a constant-step add/sub each iteration. *)
let trip_count (pred : Op.icmp_pred) ~(init : int) ~(step : int)
    ~(bound : int) ~(max_trip : int) : int option =
  let holds v =
    match pred with
    | Op.Islt -> v < bound
    | Op.Isle -> v <= bound
    | Op.Isgt -> v > bound
    | Op.Isge -> v >= bound
    | Op.Ieq -> v = bound
    | Op.Ine -> v <> bound
  in
  let rec go v n = if not (holds v) then Some n
    else if n > max_trip then None
    else go (v + step) (n + 1)
  in
  if step = 0 then None else go init 0

(* Match the shape described in the module docstring. *)
let analyze (l : Loops.loop) ~(max_trip : int) :
    counted_loop option =
  let header = l.Loops.header in
  match l.Loops.latches, preds header with
  | [ latch ], [ p1; p2 ] ->
      let preheader = if p1.bid = latch.bid then p2 else p1 in
      if preheader.bid = latch.bid then None
      else if not (has_terminator header) then None
      else begin
        let t = terminator header in
        match t.op with
        | Op.Condbr -> (
            let tdest = t.blocks.(0) and fdest = t.blocks.(1) in
            let in_l b = Loops.in_loop l b in
            let body_entry, exit_ =
              if in_l tdest && not (in_l fdest) then (Some tdest, Some fdest)
              else if in_l fdest && not (in_l tdest) then
                (None, None) (* inverted loops unsupported *)
              else (None, None)
            in
            match body_entry, exit_ with
            | Some body_entry, Some exit_ -> (
                (* every other exit edge would break the "header is the
                   only exiting block" requirement *)
                let exits = Loops.exit_edges l in
                if
                  List.exists (fun (src, _) -> src.bid <> header.bid) exits
                then None
                else
                  match t.operands.(0) with
                  | Instr cmp when (match cmp.op with Op.Icmp _ -> true | _ -> false) -> (
                      let pred =
                        match cmp.op with Op.Icmp p -> p | _ -> assert false
                      in
                      match cmp.operands.(0), cmp.operands.(1) with
                      | Instr iv, Int bound
                        when iv.op = Op.Phi
                             && (match iv.parent with
                                | Some b -> b.bid = header.bid
                                | None -> false) -> (
                          let init = phi_incoming_for iv preheader in
                          let next = phi_incoming_for iv latch in
                          match init, next with
                          | Some (Int init), Some (Instr upd) -> (
                              let step =
                                match upd.op, Array.to_list upd.operands with
                                | Op.Ibin Op.Add, [ Instr v; Int s ]
                                  when v.id = iv.id ->
                                    Some s
                                | Op.Ibin Op.Add, [ Int s; Instr v ]
                                  when v.id = iv.id ->
                                    Some s
                                | Op.Ibin Op.Sub, [ Instr v; Int s ]
                                  when v.id = iv.id ->
                                    Some (-s)
                                | _ -> None
                              in
                              match step with
                              | Some step -> (
                                  match
                                    trip_count pred ~init ~step ~bound
                                      ~max_trip
                                  with
                                  | Some trip ->
                                      Some
                                        {
                                          cl_loop = l;
                                          cl_preheader = preheader;
                                          cl_latch = latch;
                                          cl_exit = exit_;
                                          cl_body_entry = body_entry;
                                          cl_trip = trip;
                                        }
                                  | None -> None)
                              | None -> None)
                          | _ -> None)
                      | _ -> None)
                  | _ -> None)
            | _ -> None)
        | _ -> None
      end
  | _ -> None

(* Clone one iteration of the loop: all loop blocks, with values mapped
   through [vmap] (loop-carried phis and previous clones) and branch
   targets through [bmap].  The header's phis are not cloned (vmap
   substitutes them) and its terminator is replaced by a jump to the
   iteration's body entry (or, for the final check, to the exit). *)
let clone_iteration (f : func) (cl : counted_loop) ~(iter : int)
    ~(vmap : (int, value) Hashtbl.t) : (int, block) Hashtbl.t =
  let l = cl.cl_loop in
  let header = l.Loops.header in
  let bmap = Hashtbl.create 8 in
  let loop_blocks = Loops.blocks_of l in
  List.iter
    (fun b ->
      let nb = mk_block (Printf.sprintf "%s.it%d" b.bname iter) in
      append_block f nb;
      Hashtbl.replace bmap b.bid nb)
    loop_blocks;
  (* phi incoming sources always refer to edges within this iteration;
     branch targets to the header are the back edge into the *next*
     iteration and stay unmapped (the driver rewires them) *)
  let map_block_phi b =
    match Hashtbl.find_opt bmap b.bid with Some nb -> nb | None -> b
  in
  let map_block_target b =
    if b.bid = header.bid then b else map_block_phi b
  in
  (* Two passes, so references across blocks resolve regardless of block
     order (phi cycles, nested loops that were not unrollable):
     first create every clone and register it in [vmap], then fill in
     operands and phi incomings. *)
  let fixups : (instr * instr) list ref = ref [] in
  List.iter
    (fun b ->
      let nb = Hashtbl.find bmap b.bid in
      List.iter
        (fun i ->
          if b.bid = header.bid && i.op = Op.Phi then ()
            (* header phis are substituted via vmap *)
          else if b.bid = header.bid && Op.is_terminator i.op then begin
            (* the trip count is static: always continue into the body *)
            let j =
              mk_instr Op.Br [||]
                [| map_block_phi cl.cl_body_entry |]
                Types.Void
            in
            append_instr nb j
          end
          else begin
            let clone = mk_instr i.op [||] [||] i.ty in
            append_instr nb clone;
            if not (Types.equal i.ty Types.Void) || i.op = Op.Phi then
              Hashtbl.replace vmap i.id (Instr clone);
            fixups := (clone, i) :: !fixups
          end)
        b.instrs)
    loop_blocks;
  let map_value v =
    match v with
    | Instr d -> (
        match Hashtbl.find_opt vmap d.id with Some v' -> v' | None -> v)
    | _ -> v
  in
  List.iter
    (fun (clone, orig) ->
      if orig.op = Op.Phi then
        set_phi_incoming clone
          (List.map
             (fun (v, src) -> (map_value v, map_block_phi src))
             (phi_incoming orig))
      else begin
        set_operands clone (Array.map map_value orig.operands);
        retarget clone (Array.map map_block_target orig.blocks)
      end)
    !fixups;
  bmap

(** Fully unroll [cl]; the original loop blocks are removed. *)
let unroll (f : func) (cl : counted_loop) : unit =
  let l = cl.cl_loop in
  let header = l.Loops.header in
  let header_phis = phis header in
  (* running values of the loop-carried phis, starting at the
     preheader's incoming values *)
  let carried = Hashtbl.create 8 in
  List.iter
    (fun phi ->
      match phi_incoming_for phi cl.cl_preheader with
      | Some v -> Hashtbl.replace carried phi.id v
      | None -> invalid_arg "Loop_unroll: phi misses preheader incoming")
    header_phis;
  let prev_tail = ref cl.cl_preheader in
  for iter = 0 to cl.cl_trip - 1 do
    let vmap = Hashtbl.create 32 in
    Hashtbl.iter (fun k v -> Hashtbl.replace vmap k v) carried;
    let bmap = clone_iteration f cl ~iter ~vmap in
    let new_header = Hashtbl.find bmap header.bid in
    let new_latch = Hashtbl.find bmap cl.cl_latch.bid in
    (* link the previous tail to this iteration's header: for later
       iterations the previous latch clone still targets the original
       header (clone_iteration leaves back edges unmapped) *)
    redirect_edge !prev_tail ~old_dest:header ~new_dest:new_header;
    (* update carried values from the latch's incoming *)
    List.iter
      (fun phi ->
        match phi_incoming_for phi cl.cl_latch with
        | Some v ->
            let mapped =
              match v with
              | Instr d -> (
                  match Hashtbl.find_opt vmap d.id with
                  | Some v' -> v'
                  | None -> v)
              | _ -> v
            in
            Hashtbl.replace carried phi.id mapped
        | None -> invalid_arg "Loop_unroll: phi misses latch incoming")
      header_phis;
    prev_tail := new_latch
  done;
  (* Epilogue: the loop exits after one final evaluation of the header
     (its phis take the carried values, its body instructions run once
     more).  Cloning it keeps every header-defined value available to
     code after the loop. *)
  let epi = mk_block (header.bname ^ ".epilogue") in
  append_block f epi;
  let evmap = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> Hashtbl.replace evmap k v) carried;
  let map_value v =
    match v with
    | Instr d -> (
        match Hashtbl.find_opt evmap d.id with Some v' -> v' | None -> v)
    | _ -> v
  in
  List.iter
    (fun i ->
      if i.op = Op.Phi || Op.is_terminator i.op then ()
      else begin
        let clone =
          mk_instr i.op (Array.map map_value i.operands) [||] i.ty
        in
        append_instr epi clone;
        if not (Types.equal i.ty Types.Void) then
          Hashtbl.replace evmap i.id (Instr clone)
      end)
    header.instrs;
  append_instr epi (mk_instr Op.Br [||] [| cl.cl_exit |] Types.Void);
  redirect_edge !prev_tail ~old_dest:header ~new_dest:epi;
  (* external uses of loop values can only reference header-defined
     values (nothing else dominates the exit); map the users of each
     one outside the loop to the epilogue *)
  let in_loop_block i =
    match i.parent with Some b -> Loops.in_loop l b | None -> false
  in
  let in_epilogue i =
    match i.parent with Some b -> b == epi | None -> false
  in
  List.iter
    (fun d ->
      Option.iter
        (fun v ->
          replace_uses d v ~where:(fun u _ ->
              not (in_loop_block u || in_epilogue u)))
        (Hashtbl.find_opt evmap d.id))
    header.instrs;
  phi_replace_incoming_block cl.cl_exit ~old_pred:header ~new_pred:epi;
  (* drop the original loop *)
  List.iter (fun b -> remove_block f b) (Loops.blocks_of l)

(** Fully unroll every simple counted loop with trip count at most
    [max_trip], repeating until no more loops qualify (so nested counted
    loops unroll inside-out).  Returns the number of loops unrolled. *)
let run ?(max_trip = 16) (f : func) : int =
  let count = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    let li = Loops.compute f in
    let candidate =
      List.fold_left
        (fun acc l ->
          match acc with
          | Some _ -> acc
          | None ->
              (* only innermost loops (no other loop nested within) *)
              let is_innermost =
                not
                  (List.exists
                     (fun l2 ->
                       l2 != l
                       && Hashtbl.mem l.Loops.body l2.Loops.header.bid)
                     li.Loops.loops)
              in
              if is_innermost then analyze l ~max_trip else None)
        None li.Loops.loops
    in
    match candidate with
    | Some cl ->
        unroll f cl;
        ignore (Darm_analysis.Cfg.remove_unreachable f);
        incr count;
        progress := true
    | None -> ()
  done;
  !count
