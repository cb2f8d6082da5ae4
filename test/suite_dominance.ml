(* The shared dominator core ([Darm_ir.Dom]) against a brute-force
   reference, through both of its clients: [Domtree] (dominators and
   post-dominators) and the verifier's def-use dominance check. *)

open Darm_ir
module A = Darm_analysis
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module Gen = Darm_fuzz.Gen
module Pass = Darm_core.Pass

let qcheck t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Brute-force reference                                               *)

(* Block ids reachable from [roots] along [next] without entering the
   block [without]. *)
let reach ~(roots : Ssa.block list) ~(next : Ssa.block -> Ssa.block list)
    ~(without : int) : (int, unit) Hashtbl.t =
  let seen = Hashtbl.create 64 in
  let rec go b =
    if b.Ssa.bid <> without && not (Hashtbl.mem seen b.Ssa.bid) then begin
      Hashtbl.replace seen b.Ssa.bid ();
      List.iter go (next b)
    end
  in
  List.iter go roots;
  seen

(* [reference ~post f a b]: does [a] (post-)dominate [b]?  In the dominance-direction
   graph, [a] dominates [b] iff [b] is reachable from the root and
   unreachable once [a] is deleted.  For post-dominators the graph is
   the reversed CFG over the blocks reachable from the entry, rooted at
   a virtual exit whose successors are the [Ret] blocks. *)
let reference ~(post : bool) (f : Ssa.func) : Ssa.block -> Ssa.block -> bool =
  let entry = Ssa.entry_block f in
  let fwd = reach ~roots:[ entry ] ~next:Ssa.successors ~without:(-1) in
  let roots, next =
    if not post then ([ entry ], Ssa.successors)
    else
      let live b = Hashtbl.mem fwd b.Ssa.bid in
      ( List.filter
          (fun b ->
            live b && Ssa.has_terminator b
            && (Ssa.terminator b).Ssa.op = Op.Ret)
          f.Ssa.blocks_list,
        fun b -> List.filter live (Ssa.preds b) )
  in
  let all = reach ~roots ~next ~without:(-1) in
  let without = Hashtbl.create 64 in
  fun a b ->
    Hashtbl.mem all b.Ssa.bid
    &&
    let r =
      match Hashtbl.find_opt without a.Ssa.bid with
      | Some r -> r
      | None ->
          let r = reach ~roots ~next ~without:a.Ssa.bid in
          Hashtbl.replace without a.Ssa.bid r;
          r
    in
    not (Hashtbl.mem r b.Ssa.bid)

(* every ordered block pair of [f], under both relations *)
let check_domtrees ~(what : string) (f : Ssa.func) =
  List.iter
    (fun post ->
      let t = if post then A.Domtree.compute_post f else A.Domtree.compute f in
      let expect = reference ~post f in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let got = A.Domtree.dominates t a b in
              if got <> expect a b then
                Alcotest.failf "%s: %s %s %s: Domtree says %b" what a.Ssa.bname
                  (if post then "post-dominates" else "dominates")
                  b.Ssa.bname got)
            f.Ssa.blocks_list)
        f.Ssa.blocks_list)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Domtree against the reference                                       *)

let test_domtree_registry () =
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun bs ->
          let what = Printf.sprintf "%s/bs%d" k.Kernel.tag bs in
          let f =
            (k.Kernel.make ~seed:2022 ~block_size:bs ~n:k.Kernel.default_n)
              .Kernel.func
          in
          check_domtrees ~what f;
          ignore (Pass.run f);
          check_domtrees ~what:(what ^ " melded") f)
        k.Kernel.block_sizes)
    Registry.all

let subject_gen : (string * Gen.cfg * int) QCheck2.Gen.t =
  QCheck2.Gen.(
    pair bool (int_range 0 10_000) >|= fun (smoke, seed) ->
    if smoke then ("smoke", Gen.smoke_cfg, seed)
    else ("default", Gen.default_cfg, seed))

let print_subject (profile, _, seed) = Printf.sprintf "%s seed %d" profile seed

let prop_domtree_gen =
  qcheck
    (QCheck2.Test.make ~count:40 ~print:print_subject
       ~name:"domtree matches the reference on generated kernels" subject_gen
       (fun (profile, cfg, seed) ->
         let what = Printf.sprintf "gen-%s/%d" profile seed in
         let f = Gen.generate ~cfg ~seed () in
         check_domtrees ~what f;
         ignore (Pass.run f);
         check_domtrees ~what:(what ^ " melded") f;
         true))

(* ------------------------------------------------------------------ *)
(* The verifier's dominance check against the reference                *)

let position (f : Ssa.func) : (int, int) Hashtbl.t =
  let pos = Hashtbl.create 256 in
  List.iter
    (fun b ->
      List.iteri (fun k i -> Hashtbl.replace pos i.Ssa.id k) b.Ssa.instrs)
    f.Ssa.blocks_list;
  pos

(* Does [def] reach operand [k] of [use] legally?  A phi operand flows
   along its incoming edge, so [def] must dominate (or sit in) the
   edge's source block. *)
let reference_ok ~dominates ~pos (def : Ssa.instr) (use : Ssa.instr) (k : int) =
  match def.Ssa.parent, use.Ssa.parent with
  | Some db, Some ub ->
      if use.Ssa.op = Op.Phi then
        let src = use.Ssa.blocks.(k) in
        db.Ssa.bid = src.Ssa.bid || dominates db src
      else if db.Ssa.bid = ub.Ssa.bid then
        Hashtbl.find pos def.Ssa.id < Hashtbl.find pos use.Ssa.id
      else dominates db ub
  | _ -> false

let reports_dominance (errs : Verify.error list) =
  let needle = "does not dominate" in
  let n = String.length needle in
  List.exists
    (fun (e : Verify.error) ->
      let m = e.Verify.msg in
      let rec scan k =
        k + n <= String.length m && (String.sub m k n = needle || scan (k + 1))
      in
      scan 0)
    errs

(* Rewire operand [k] of a random use to a random def, [rounds] times
   (restoring it in between), and compare the verifier with the
   reference each time. *)
let check_rewires ~(what : string) ~(rng : Random.State.t) ~(rounds : int)
    (f : Ssa.func) =
  (match Verify.run f with
  | [] -> ()
  | e :: _ -> Alcotest.failf "%s: does not verify: %s" what e.Verify.msg);
  let instrs = Ssa.fold_instrs f (fun acc i -> i :: acc) [] in
  let pick p = Array.of_list (List.filter p instrs) in
  let uses = pick (fun i -> Array.length i.Ssa.operands > 0) in
  let defs = pick (fun i -> not (Types.equal i.Ssa.ty Types.Void)) in
  if Array.length uses > 0 && Array.length defs > 0 then begin
    let dominates = reference ~post:false f in
    let entry = Ssa.entry_block f in
    let live = reach ~roots:[ entry ] ~next:Ssa.successors ~without:(-1) in
    let pos = position f in
    for _ = 1 to rounds do
      let use = uses.(Random.State.int rng (Array.length uses)) in
      let k = Random.State.int rng (Array.length use.Ssa.operands) in
      let def = defs.(Random.State.int rng (Array.length defs)) in
      let saved = use.Ssa.operands.(k) in
      Ssa.set_operand use k (Ssa.Instr def);
      let use_live =
        match use.Ssa.parent with
        | Some ub -> Hashtbl.mem live ub.Ssa.bid
        | None -> false
      in
      let expect =
        use_live && not (reference_ok ~dominates ~pos def use k)
      in
      let got = reports_dominance (Verify.run f) in
      Ssa.set_operand use k saved;
      if got <> expect then
        Alcotest.failf
          "%s: operand %d of instr %d (%s) rewired to def %d: verifier %s a \
           dominance error, the reference %s"
          what k use.Ssa.id (Op.to_string use.Ssa.op) def.Ssa.id
          (if got then "reports" else "does not report")
          (if expect then "expects one" else "does not")
    done
  end

let prop_verify_rewire =
  qcheck
    (QCheck2.Test.make ~count:40 ~print:print_subject
       ~name:"verifier dominance errors match the reference under rewiring"
       subject_gen
       (fun (profile, cfg, seed) ->
         let what = Printf.sprintf "gen-%s/%d" profile seed in
         let rng = Random.State.make [| seed |] in
         let f = Gen.generate ~cfg ~seed () in
         check_rewires ~what ~rng ~rounds:25 f;
         ignore (Pass.run f);
         check_rewires ~what:(what ^ " melded") ~rng ~rounds:25 f;
         true))

let suites =
  [
    ( "dominance",
      [
        Alcotest.test_case "domtree = reference: registry, pre and post meld"
          `Quick test_domtree_registry;
        prop_domtree_gen;
        prop_verify_rewire;
      ] );
  ]
