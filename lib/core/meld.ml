(** Subgraph melding code generation (paper §IV-D/§IV-E, Algorithm 2).

    Given two isomorphic SESE subgraphs [S_T] / [S_F] of a meldable
    divergent region with branch condition [C], this module produces one
    melded subgraph executed by both paths:

    - corresponding basic blocks are processed in pre-order
      (linearization), so dominating definitions are melded before uses;
    - within each block pair, the body instructions are aligned with
      Needleman–Wunsch under the FP_I score; aligned pairs ("I-I") are
      cloned once, gap instructions ("I-G") are cloned as-is;
    - operands of melded instructions are looked up through the operand
      map; where the true-side and false-side operands still differ, a
      [select C] chooses between them (reused within a block for repeated
      pairs);
    - phi nodes are never merged with selects in front of them; instead
      both sides' phis are copied into the melded block (paper: "Melding
      phi nodes") and redundant copies are left to the post
      optimizations;
    - values defined on one path {e outside} the subgraphs but used
      inside them no longer dominate the melded code; they are routed
      through entry phis with [undef] on the opposite edge (paper Fig. 4,
      "pre-processing");
    - the melded exit ends in [condbr C, B_T', B_F'] where the fresh
      blocks [B_T'] / [B_F'] jump to the original exit destinations and
      give the exit phis distinguishable predecessors (paper: "Melding
      branch instructions");
    - finally, {e unpredication} moves runs of gap instructions into
      fresh blocks guarded by [C] (true-side runs) or its complement
      (false-side runs), merging their values back with phis whose
      opposite-edge value is [undef] (paper §IV-E, Fig. 3c).  Runs
      containing instructions that are unsafe to speculate (stores,
      possibly-trapping divisions, loads) are {e always} unpredicated;
      pure runs only when the [unpredicate] flag is set. *)

open Darm_ir
open Darm_ir.Ssa
module Latency = Darm_analysis.Latency
module Domtree = Darm_analysis.Domtree
module Manager = Darm_analysis.Manager

type side = T | F

type provenance = Melded | Gap of side

type stats = {
  mutable melded_pairs : int;       (** I-I pairs collapsed into one *)
  mutable gap_instrs : int;         (** I-G instructions cloned *)
  mutable selects_inserted : int;
  mutable entry_phis : int;
  mutable unpredicated_runs : int;
}

let empty_stats () =
  {
    melded_pairs = 0;
    gap_instrs = 0;
    selects_inserted = 0;
    entry_phis = 0;
    unpredicated_runs = 0;
  }

type env = {
  fn : func;
  cond : value;
  dt : Domtree.t;
  lat : Latency.config;
  s_t : Region.subgraph;
  s_f : Region.subgraph;
  pre_t : block;
  pre_f : block;
  operand_map : (int, value) Hashtbl.t;  (** original instr id -> melded *)
  block_map_t : (int, block) Hashtbl.t;  (** S_T block id -> melded block *)
  block_map_f : (int, block) Hashtbl.t;
  provenance : (int, provenance) Hashtbl.t;  (** melded instr id -> origin *)
  entry_phi_cache : (int, value) Hashtbl.t;  (** outside def id -> phi *)
  mutable melded_entry : block option;
  mutable exit_fixups : (block * block) list;
      (** (exit destination, fresh exit block B') pairs whose phi
          incoming values still need side-aware resolution *)
  stats : stats;
}

let lookup env (v : value) : value =
  match v with
  | Instr i -> (
      match Hashtbl.find_opt env.operand_map i.id with
      | Some m -> m
      | None -> v)
  | Int _ | Bool _ | Float _ | Undef _ | Param _ -> v

(* Pre-processing phis (paper Fig. 4): route a definition that only
   dominates one entry edge through a phi at the melded entry. *)
let entry_phi env (d : instr) ~(from_true : bool) : value =
  match Hashtbl.find_opt env.entry_phi_cache d.id with
  | Some v -> v
  | None ->
      let m0 =
        match env.melded_entry with
        | Some b -> b
        | None -> invalid_arg "Meld.entry_phi: no melded entry yet"
      in
      let phi = mk_instr Op.Phi [||] [||] d.ty in
      prepend_instr m0 phi;
      let incoming =
        if from_true then [ (Instr d, env.pre_t); (Undef d.ty, env.pre_f) ]
        else [ (Undef d.ty, env.pre_t); (Instr d, env.pre_f) ]
      in
      (* If the melded entry is a loop header, the back edges carry the
         phi's own value around the loop. *)
      let internal_preds =
        List.filter
          (fun p -> p.bid <> env.pre_t.bid && p.bid <> env.pre_f.bid)
          (preds m0)
      in
      let incoming =
        incoming @ List.map (fun p -> (Instr phi, p)) internal_preds
      in
      set_phi_incoming phi incoming;
      Hashtbl.replace env.entry_phi_cache d.id (Instr phi);
      env.stats.entry_phis <- env.stats.entry_phis + 1;
      Instr phi

(** Translate an original operand into a value valid inside the melded
    subgraph: melded instructions map through the operand map; values
    defined above the region pass through unchanged; values defined on
    one side outside the subgraph get an entry phi. *)
let resolve env (v : value) : value =
  match lookup env v with
  | Instr d as looked ->
      if Hashtbl.mem env.provenance d.id then looked
      else begin
        (* an original instruction: check dominance over both entries *)
        let dom_t = Domtree.instr_dominates env.dt d (terminator env.pre_t) in
        let dom_f = Domtree.instr_dominates env.dt d (terminator env.pre_f) in
        if dom_t && dom_f then looked
        else entry_phi env d ~from_true:dom_t
      end
  | other -> other

(* select reuse: one per (block, vt, vf) triple *)
let value_key (v : value) : string =
  match v with
  | Instr i -> "i" ^ string_of_int i.id
  | Int k -> "c" ^ string_of_int k
  | Bool b -> "b" ^ string_of_bool b
  | Float x -> "f" ^ Printf.sprintf "%h" x
  | Undef t -> "u" ^ Types.to_string t
  | Param p -> "p" ^ string_of_int p.pindex

let select_for env (anchor : instr) (vt : value) (vf : value)
    (cache : (string * string, value) Hashtbl.t) : value =
  let key = (value_key vt, value_key vf) in
  match Hashtbl.find_opt cache key with
  | Some s -> s
  | None ->
      let ops = [| env.cond; vt; vf |] in
      let ty = Option.get (result_ty Op.Select ops) in
      let sel = mk_instr Op.Select ops [||] ty in
      (* right before the instruction that needs it *)
      insert_before anchor sel;
      Hashtbl.replace env.provenance sel.id Melded;
      Hashtbl.replace cache key (Instr sel);
      env.stats.selects_inserted <- env.stats.selects_inserted + 1;
      Instr sel

type clone_record =
  | Both_src of instr * instr * instr  (** melded, orig_t, orig_f *)
  | Gap_src of instr * instr * side    (** clone, orig, side *)
  | Phi_copy of instr * instr * side   (** copy, orig phi, side *)
  | Term_both of instr * instr * instr (** melded term, orig_t, orig_f *)

(** The main melding procedure.  [pairs] is the isomorphism
    correspondence in pre-order; the subgraphs must be normalized
    ({!Simplify_region}).  Both dominator trees come from [fn]'s
    analysis cache: the normalized function's, read before the first
    edit, and the melded one's for the dominance repair.  Returns the
    melded entry block. *)
let run (fn : func) ~(cond : value) ~(lat : Latency.config)
    ~(s_t : Region.subgraph) ~(s_f : Region.subgraph) ~(pre_t : block)
    ~(pre_f : block) ~(pairs : (block * block) list) ~(unpredicate : bool)
    ~(stats : stats) : block =
  let dt = Manager.domtree fn in
  let env =
    {
      fn;
      cond;
      dt;
      lat;
      s_t;
      s_f;
      pre_t;
      pre_f;
      operand_map = Hashtbl.create 64;
      block_map_t = Hashtbl.create 8;
      block_map_f = Hashtbl.create 8;
      provenance = Hashtbl.create 64;
      entry_phi_cache = Hashtbl.create 8;
      melded_entry = None;
      exit_fixups = [];
      stats;
    }
  in
  (* -------- pass 0: create melded blocks -------- *)
  let melded_blocks =
    List.map
      (fun (bt, bf) ->
        let m = mk_block ("m." ^ bt.bname) in
        append_block fn m;
        Hashtbl.replace env.block_map_t bt.bid m;
        Hashtbl.replace env.block_map_f bf.bid m;
        (bt, bf, m))
      pairs
  in
  (match melded_blocks with
  | (_, _, m0) :: _ -> env.melded_entry <- Some m0
  | [] -> invalid_arg "Meld.run: empty correspondence");
  let melded_of_t b = Hashtbl.find env.block_map_t b.bid in
  let _melded_of_f b = Hashtbl.find env.block_map_f b.bid in
  (* -------- pass 1: clone instructions -------- *)
  let records : clone_record list ref = ref [] in
  let record r = records := r :: !records in
  List.iter
    (fun (bt, bf, m) ->
      (* phis from both sides are copied, never merged (selects cannot
         precede them); incoming lists are fixed up in pass 2 *)
      List.iter
        (fun (orig, side) ->
          let copy = mk_instr Op.Phi [||] [||] orig.ty in
          append_instr m copy;
          Hashtbl.replace env.operand_map orig.id (Instr copy);
          Hashtbl.replace env.provenance copy.id Melded;
          record (Phi_copy (copy, orig, side)))
        (List.map (fun p -> (p, T)) (phis bt)
        @ List.map (fun p -> (p, F)) (phis bf));
      (* aligned body *)
      let alignment = Darm_align.Instr_align.align_blocks lat bt bf in
      List.iter
        (fun item ->
          match item with
          | Darm_align.Sequence.Both (it, if_) ->
              let clone = mk_instr it.op (Array.copy it.operands) [||] it.ty in
              append_instr m clone;
              Hashtbl.replace env.operand_map it.id (Instr clone);
              Hashtbl.replace env.operand_map if_.id (Instr clone);
              Hashtbl.replace env.provenance clone.id Melded;
              env.stats.melded_pairs <- env.stats.melded_pairs + 1;
              record (Both_src (clone, it, if_))
          | Darm_align.Sequence.Left it ->
              let clone = mk_instr it.op (Array.copy it.operands) [||] it.ty in
              append_instr m clone;
              Hashtbl.replace env.operand_map it.id (Instr clone);
              Hashtbl.replace env.provenance clone.id (Gap T);
              env.stats.gap_instrs <- env.stats.gap_instrs + 1;
              record (Gap_src (clone, it, T))
          | Darm_align.Sequence.Right if_ ->
              let clone =
                mk_instr if_.op (Array.copy if_.operands) [||] if_.ty
              in
              append_instr m clone;
              Hashtbl.replace env.operand_map if_.id (Instr clone);
              Hashtbl.replace env.provenance clone.id (Gap F);
              env.stats.gap_instrs <- env.stats.gap_instrs + 1;
              record (Gap_src (clone, if_, F)))
        alignment;
      (* terminator *)
      let tt = terminator bt and tf = terminator bf in
      let is_exit_t blk = not (Region.in_subgraph s_t blk) in
      match tt.op with
      | Op.Br when is_exit_t tt.blocks.(0) ->
          (* melded exit: condbr C, B_T', B_F' *)
          let bt' = mk_block "m.exit.t" and bf' = mk_block "m.exit.f" in
          append_block fn bt';
          append_block fn bf';
          append_instr bt'
            (mk_instr Op.Br [||] [| s_t.sg_exit_dest |] Types.Void);
          append_instr bf'
            (mk_instr Op.Br [||] [| s_f.sg_exit_dest |] Types.Void);
          let term =
            mk_instr Op.Condbr [| cond |] [| bt'; bf' |] Types.Void
          in
          append_instr m term;
          Hashtbl.replace env.provenance term.id Melded;
          (* exit-destination phis: retarget the incoming edges; the
             values are resolved side-aware after pass 2 (they may be
             one-sided definitions needing an entry phi, paper Fig. 4) *)
          List.iter
            (fun phi ->
              let updated =
                List.map
                  (fun (v, blk) ->
                    if blk.bid = bt.bid then (v, bt') else (v, blk))
                  (phi_incoming phi)
              in
              set_phi_incoming phi updated)
            (phis s_t.sg_exit_dest);
          List.iter
            (fun phi ->
              let updated =
                List.map
                  (fun (v, blk) ->
                    if blk.bid = bf.bid then (v, bf') else (v, blk))
                  (phi_incoming phi)
              in
              set_phi_incoming phi updated)
            (phis s_f.sg_exit_dest);
          env.exit_fixups <-
            (s_t.sg_exit_dest, bt') :: (s_f.sg_exit_dest, bf')
            :: env.exit_fixups
      | Op.Br ->
          let term =
            mk_instr Op.Br [||] [| melded_of_t tt.blocks.(0) |] Types.Void
          in
          append_instr m term;
          Hashtbl.replace env.provenance term.id Melded
      | Op.Condbr ->
          (* normalization guarantees conditional branches stay internal *)
          assert (Region.in_subgraph s_t tt.blocks.(0));
          assert (Region.in_subgraph s_t tt.blocks.(1));
          let term =
            mk_instr Op.Condbr
              (Array.copy tt.operands)
              [| melded_of_t tt.blocks.(0); melded_of_t tt.blocks.(1) |]
              Types.Void
          in
          append_instr m term;
          Hashtbl.replace env.provenance term.id Melded;
          record (Term_both (term, tt, tf))
      | _ ->
          invalid_arg "Meld.run: unexpected terminator in subgraph")
    melded_blocks;
  (* -------- pass 2: set operands -------- *)
  let select_caches : (int, (string * string, value) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let cache_for (m : block) =
    match Hashtbl.find_opt select_caches m.bid with
    | Some c -> c
    | None ->
        let c = Hashtbl.create 8 in
        Hashtbl.replace select_caches m.bid c;
        c
  in
  let set_both (clone : instr) (it : instr) (if_ : instr) =
    let m = match clone.parent with Some b -> b | None -> assert false in
    let cache = cache_for m in
    let ops =
      Array.mapi
        (fun k vt_orig ->
          let vt = resolve env vt_orig in
          let vf = resolve env if_.operands.(k) in
          if value_equal vt vf then vt
          else select_for env clone vt vf cache)
        it.operands
    in
    set_operands clone ops
  in
  List.iter
    (fun r ->
      match r with
      | Both_src (clone, it, if_) -> set_both clone it if_
      | Term_both (term, tt, tf) ->
          let m = match term.parent with Some b -> b | None -> assert false in
          let cache = cache_for m in
          let vt = resolve env tt.operands.(0) in
          let vf = resolve env tf.operands.(0) in
          let c =
            if value_equal vt vf then vt
            else select_for env term vt vf cache
          in
          set_operands term [| c |]
      | Gap_src (clone, _orig, _side) ->
          set_operands clone (Array.map (resolve env) clone.operands)
      | Phi_copy (copy, orig, side) ->
          let m0 = match env.melded_entry with Some b -> b | None -> assert false in
          let my_block =
            match copy.parent with Some b -> b | None -> assert false
          in
          let map_pred blk =
            match side with
            | T -> (
                match Hashtbl.find_opt env.block_map_t blk.bid with
                | Some mb -> Some mb
                | None -> None)
            | F -> (
                match Hashtbl.find_opt env.block_map_f blk.bid with
                | Some mb -> Some mb
                | None -> None)
          in
          let incoming =
            List.map
              (fun (v, blk) ->
                match map_pred blk with
                | Some mb -> (resolve env v, mb)
                | None ->
                    (* external predecessor: only at the melded entry *)
                    (lookup env v, (match side with T -> pre_t | F -> pre_f)))
              (phi_incoming orig)
          in
          (* at the melded entry the opposite edge needs an undef entry *)
          let incoming =
            if my_block.bid = m0.bid then begin
              let opposite = match side with T -> pre_f | F -> pre_t in
              if
                not
                  (List.exists
                     (fun (_, blk) -> blk.bid = opposite.bid)
                     incoming)
              then incoming @ [ (Undef copy.ty, opposite) ]
              else incoming
            end
            else incoming
          in
          set_phi_incoming copy incoming)
    (List.rev !records);
  (* -------- pass 2b: resolve exit-phi incoming values -------- *)
  (* A value flowing out of the region along the melded exit edge may be
     defined on only one side outside the subgraphs; it must then be
     routed through an entry phi exactly like in-region uses. *)
  List.iter
    (fun (dest, b') ->
      List.iter
        (fun phi ->
          let updated =
            List.map
              (fun (v, blk) ->
                if blk.bid = b'.bid then (resolve env v, blk) else (v, blk))
              (phi_incoming phi)
          in
          set_phi_incoming phi updated)
        (phis dest))
    env.exit_fixups;
  (* -------- pass 3: replace external uses of the original values ----- *)
  (* the originals' own uses are about to be deleted *)
  let in_doomed (u : instr) =
    match u.parent with
    | Some b -> Region.in_subgraph s_t b || Region.in_subgraph s_f b
    | None -> false
  in
  List.iter
    (fun (bt, bf, _) ->
      List.iter
        (fun o ->
          match lookup env (Instr o) with
          | Instr m when m == o -> ()
          | v -> replace_uses o v ~where:(fun u _ -> not (in_doomed u)))
        (bt.instrs @ bf.instrs))
    melded_blocks;
  (* -------- pass 4: rewire entries and delete the originals -------- *)
  let m0 = match env.melded_entry with Some b -> b | None -> assert false in
  redirect_edge pre_t ~old_dest:s_t.sg_entry ~new_dest:m0;
  redirect_edge pre_f ~old_dest:s_f.sg_entry ~new_dest:m0;
  List.iter (remove_block fn) (Region.subgraph_block_list s_t);
  List.iter (remove_block fn) (Region.subgraph_block_list s_f);
  (* -------- pass 5: unpredication -------- *)
  let unpredicate_block (m : block) =
    (* repeatedly extract the first run that must move *)
    let continue_ = ref true in
    let current = ref m in
    while !continue_ do
      let blk = !current in
      let body_instrs =
        List.filter
          (fun i -> i.op <> Op.Phi && not (Op.is_terminator i.op))
          blk.instrs
      in
      (* find first maximal same-side gap run; also return the scan
         position after it so pure runs can be skipped *)
      let rec find_run acc side = function
        | i :: tl -> (
            match Hashtbl.find_opt env.provenance i.id with
            | Some (Gap s) when side = None || side = Some s ->
                find_run (i :: acc) (Some s) tl
            | _ ->
                if acc = [] then find_run [] None tl
                else (List.rev acc, side, i :: tl))
        | [] -> (List.rev acc, side, [])
      in
      (* the first run that must move: every run when unpredicating,
         otherwise only runs containing unsafe-to-speculate
         instructions — a pure run may stay in line, but scanning must
         continue past it, or an unsafe load/store behind it would be
         left to execute speculatively *)
      let rec find_movable = function
        | [] -> None
        | instrs -> (
            match find_run [] None instrs with
            | [], _, _ -> None
            | run, side, rest ->
                if
                  unpredicate
                  || List.exists
                       (fun i -> Op.unsafe_to_speculate i.op)
                       run
                then Some (run, side)
                else find_movable rest)
      in
      match find_movable body_instrs with
      | None -> continue_ := false
      | Some (run_instrs, side) ->
      begin
        let side = match side with Some s -> s | None -> assert false in
        let run_ids = List.map (fun i -> i.id) run_instrs in
        (* split blk into head / guard / tail *)
        let guard = mk_block (blk.bname ^ ".split") in
        let tail = mk_block (blk.bname ^ ".tail") in
        append_block fn guard;
        append_block fn tail;
        let rec partition_instrs seen_run = function
          | [] -> ([], [])
          | i :: tl ->
              if List.mem i.id run_ids then
                let h, t = partition_instrs true tl in
                (h, t)
              else if seen_run then ([], i :: tl)
              else
                let h, t = partition_instrs false tl in
                (i :: h, t)
        in
        let head_instrs, tail_instrs = partition_instrs false blk.instrs in
        set_instrs blk head_instrs;
        set_instrs guard run_instrs;
        set_instrs tail tail_instrs;
        (* successors' phis now come from tail *)
        List.iter
          (fun s -> phi_replace_incoming_block s ~old_pred:blk ~new_pred:tail)
          (Array.to_list (terminator tail).blocks);
        (* branch head -> guard/tail on cond (true side) or swapped *)
        let targets =
          match side with
          | T -> [| guard; tail |]
          | F -> [| tail; guard |]
        in
        let hterm = mk_instr Op.Condbr [| cond |] targets Types.Void in
        append_instr blk hterm;
        Hashtbl.replace env.provenance hterm.id Melded;
        let gterm = mk_instr Op.Br [||] [| tail |] Types.Void in
        append_instr guard gterm;
        Hashtbl.replace env.provenance gterm.id Melded;
        (* values escaping the guard get a phi in tail, which takes
           over every use outside the guard but the guard's own edge *)
        let outside u =
          match u.parent with Some pb -> pb.bid <> guard.bid | None -> false
        in
        List.iter
          (fun r ->
            if
              (not (Types.equal r.ty Types.Void))
              && List.exists outside (users r)
            then begin
              let phi = mk_instr Op.Phi [||] [||] r.ty in
              prepend_instr tail phi;
              Hashtbl.replace env.provenance phi.id Melded;
              set_phi_incoming phi [ (Instr r, guard); (Undef r.ty, blk) ];
              replace_uses r (Instr phi) ~where:(fun u k ->
                  outside u
                  && (u.op <> Op.Phi || u.blocks.(k).bid <> guard.bid))
            end)
          run_instrs;
        env.stats.unpredicated_runs <- env.stats.unpredicated_runs + 1;
        (* keep scanning the tail for further runs *)
        current := tail
      end
    done
  in
  List.iter (fun (_, _, m) -> unpredicate_block m) melded_blocks;
  (* -------- pass 6: dominance repair --------
     Melding merges the two paths, so a definition on one side no longer
     dominates the side's remaining blocks downstream of the melded
     subgraph (they are now also reachable through the other side's
     entry).  Such uses are dynamically dead for wrong-side threads;
     statically they are routed through an entry phi with undef on the
     opposite edge — the general form of the paper's Fig. 4
     pre-processing.

     Only the definitions in pre_t, pre_f and the surviving side blocks
     above them can have stopped dominating a use.  Every path the meld
     adds runs from one pre-entry block through the melded subgraph, so
     a definition above the region entry still lies on every path to
     its uses, and so does one downstream of the melded subgraph.  The
     blocks holding those definitions are the ones on the dominator-tree
     paths from pre_t and pre_f up to their nearest common dominator:
     the blocks that dominate exactly one of the two, whose definitions
     alone [repair] gives an entry phi.  So only their users are
     visited, in function order (the entry phis come out in the order a
     whole-function sweep creates them), and only the operands that
     change are written: the meld stamps no block it does not touch. *)
  let dt2 = Manager.domtree fn in
  let repair (d : instr) : value option =
    let dom_t = Domtree.instr_dominates dt2 d (terminator pre_t) in
    let dom_f = Domtree.instr_dominates dt2 d (terminator pre_f) in
    if dom_t <> dom_f then Some (entry_phi env d ~from_true:dom_t) else None
  in
  (* [v], or its entry phi where [v] does not dominate the use *)
  let repaired (v : value) ~(dominated : instr -> bool) : value =
    match v with
    | Instr d when not (dominated d) -> Option.value (repair d) ~default:v
    | _ -> v
  in
  let fix (u : instr) =
    if u.op = Op.Phi then begin
      let incoming = phi_incoming u in
      let updated =
        List.map
          (fun (v, src) ->
            ( repaired v ~dominated:(fun d ->
                  Domtree.instr_dominates dt2 d (terminator src)),
              src ))
          incoming
      in
      if List.exists2 (fun (a, _) (b, _) -> a != b) incoming updated then
        set_phi_incoming u updated
    end
    else begin
      let ops =
        Array.map
          (repaired ~dominated:(fun d -> Domtree.instr_dominates dt2 d u))
          u.operands
      in
      if Array.exists2 ( != ) ops u.operands then set_operands u ops
    end
  in
  let above_meld =
    let rec chain b =
      b :: Option.fold ~none:[] ~some:chain (Domtree.idom dt2 b)
    in
    let below_common c other =
      let ids = Hashtbl.create 16 in
      List.iter (fun b -> Hashtbl.replace ids b.bid ()) other;
      let rec take = function
        | b :: tl when not (Hashtbl.mem ids b.bid) -> b :: take tl
        | _ -> []
      in
      take c
    in
    let ct = chain pre_t and cf = chain pre_f in
    below_common ct cf @ below_common cf ct
  in
  let to_fix = Hashtbl.create 64 and fix_blocks = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun d ->
          List.iter
            (fun u ->
              Hashtbl.replace to_fix u.id ();
              Option.iter
                (fun ub -> Hashtbl.replace fix_blocks ub.bid ub)
                u.parent)
            (users d))
        b.instrs)
    above_meld;
  (* a function's blocks are in ascending layout stamp *)
  Hashtbl.fold (fun _ b acc -> b :: acc) fix_blocks []
  |> List.sort (fun a b -> compare a.stamp b.stamp)
  |> List.iter (fun b ->
         List.iter (fun u -> if Hashtbl.mem to_fix u.id then fix u) b.instrs);
  (* -------- pass 7: pointer type repair --------
     Operand substitution can widen a melded pointer definition to flat
     (a select over mixed-space operands joins to Flat, and geps follow
     their base; [Ssa] re-derives both).  A phi copied with its original
     concrete-space type — in particular an unpredication phi from an
     {e earlier} meld whose sides this meld just merged — would then
     "narrow" the widened value, which the verifier rejects.  Widen only
     the phis the widening made invalid, propagating to a fixpoint;
     valid types are never touched, so unaffected kernels keep their
     exact latencies. *)
  let changed = ref true in
  while !changed do
    changed := false;
    iter_instrs fn (fun i ->
        match i.op, i.ty with
        | Op.Phi, Types.Ptr rs when not (Types.addrspace_equal rs Types.Flat)
          ->
            let narrows =
              Array.exists
                (fun v ->
                  match v with
                  | Undef _ -> false
                  | _ -> (
                      match value_ty v with
                      | Types.Ptr vs -> not (Types.addrspace_equal rs vs)
                      | _ -> false))
                i.operands
            in
            if narrows then begin
              set_ty i (Types.Ptr Types.Flat);
              set_operands i
                (Array.map
                   (function Undef _ -> Undef i.ty | v -> v)
                   i.operands);
              changed := true
            end
        | _ -> ())
  done;
  m0
