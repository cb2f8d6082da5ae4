(* Incremental analysis manager + similarity prefilter (the caching /
   candidate-search layer): every Ssa mutator bumps the edit count the
   manager keys its cache on, an edit makes every query recompute, and
   the meld-candidate prefilter is exact — decisions must be
   byte-identical with it on or off, over the registry, the regression
   corpus, and fuzz-generated kernels. *)

open Darm_ir
module A = Darm_analysis
module M = A.Manager
module G = Darm_fuzz.Gen
module C = Darm_fuzz.Corpus
module Pass = Darm_core.Pass
module Region = Darm_core.Region
module Iso = Darm_core.Isomorphism
module Prof = Darm_core.Profitability
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry

let qcheck t = QCheck_alcotest.to_alcotest t
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Hand-built CFGs *)

(* entry -> (t | f) -> join, branching on the thread id (divergent) *)
let diamond_cfg () =
  let f = Ssa.mk_func "d" [] in
  let e = Ssa.mk_block "entry"
  and t = Ssa.mk_block "t"
  and fl = Ssa.mk_block "f"
  and j = Ssa.mk_block "join" in
  List.iter (Ssa.append_block f) [ e; t; fl; j ];
  let tidi = Ssa.mk_instr Op.Thread_idx [||] [||] Types.I32 in
  Ssa.append_instr e tidi;
  let c =
    Ssa.mk_instr (Op.Icmp Op.Islt) [| Ssa.Instr tidi; Ssa.Int 3 |] [||]
      Types.I1
  in
  Ssa.append_instr e c;
  Ssa.append_instr e
    (Ssa.mk_instr Op.Condbr [| Ssa.Instr c |] [| t; fl |] Types.Void);
  Ssa.append_instr t (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  Ssa.append_instr fl (Ssa.mk_instr Op.Br [||] [| j |] Types.Void);
  Ssa.append_instr j (Ssa.mk_instr Op.Ret [||] [||] Types.Void);
  (f, e, t, fl, j)

(* ------------------------------------------------------------------ *)
(* The edit count: one case per Ssa mutator *)

(* the diamond, plus a phi at the join and the compare feeding the
   branch *)
type fixture = {
  f : Ssa.func;
  e : Ssa.block;
  t : Ssa.block;
  fl : Ssa.block;
  j : Ssa.block;
  cmp : Ssa.instr;
  phi : Ssa.instr;
}

let fixture () : fixture =
  let f, e, t, fl, j = diamond_cfg () in
  let cmp = List.nth e.Ssa.instrs 1 in
  let phi = Ssa.mk_instr Op.Phi [||] [||] Types.I32 in
  Ssa.prepend_instr j phi;
  Ssa.set_phi_incoming phi [ (Ssa.Int 1, t); (Ssa.Int 2, fl) ];
  { f; e; t; fl; j; cmp; phi }

let fresh_tid () = Ssa.mk_instr Op.Thread_idx [||] [||] Types.I32

let mutators : (string * (fixture -> unit)) list =
  [
    ("append_instr", fun x -> Ssa.append_instr x.t (fresh_tid ()));
    ("prepend_instr", fun x -> Ssa.prepend_instr x.t (fresh_tid ()));
    ( "insert_before",
      fun x -> Ssa.insert_before (Ssa.terminator x.t) (fresh_tid ()) );
    ("insert_after_phis", fun x -> Ssa.insert_after_phis x.j (fresh_tid ()));
    ("remove_instr", fun x -> Ssa.remove_instr x.e x.cmp);
    ("set_instrs", fun x -> Ssa.set_instrs x.t x.t.Ssa.instrs);
    ("append_block", fun x -> Ssa.append_block x.f (Ssa.mk_block "new"));
    ("remove_block", fun x -> Ssa.remove_block x.f x.fl);
    ("retarget", fun x -> Ssa.retarget (Ssa.terminator x.e) [| x.fl; x.t |]);
    ("fold_to_br", fun x -> Ssa.fold_to_br (Ssa.terminator x.e) x.t);
    ( "redirect_edge",
      fun x -> Ssa.redirect_edge x.e ~old_dest:x.fl ~new_dest:x.t );
    ( "set_phi_incoming",
      fun x -> Ssa.set_phi_incoming x.phi (Ssa.phi_incoming x.phi) );
    ("phi_add_incoming", fun x -> Ssa.phi_add_incoming x.phi (Ssa.Int 3) x.e);
    ( "phi_replace_incoming_block",
      fun x -> Ssa.phi_replace_incoming_block x.j ~old_pred:x.t ~new_pred:x.e );
    ("phi_remove_incoming", fun x -> Ssa.phi_remove_incoming x.j ~pred:x.t);
    ( "set_operands",
      fun x -> Ssa.set_operands x.cmp [| Ssa.Int 0; Ssa.Int 3 |] );
    ("set_operand", fun x -> Ssa.set_operand x.cmp 1 (Ssa.Int 4));
    ("replace_all_uses", fun x -> Ssa.replace_all_uses x.cmp (Ssa.Bool true));
  ]

let test_bumps edit () =
  let x = fixture () in
  let c0 = x.f.Ssa.edit_count in
  edit x;
  check "edit count bumped" true (x.f.Ssa.edit_count > c0)

(* edits to blocks and instructions that sit in no function have no
   count to bump, and leave every function's alone: its count, and
   every block's edit stamp, a detached terminator's target's included *)
let test_detached_bumps_nothing () =
  let x = fixture () in
  let c0 = x.f.Ssa.edit_count in
  let stamps () = List.map (fun b -> b.Ssa.edit_stamp) x.f.Ssa.blocks_list in
  let s0 = stamps () in
  let b = Ssa.mk_block "loose" in
  let i = fresh_tid () in
  Ssa.append_instr b i;
  Ssa.set_operands i [||];
  Ssa.remove_instr b i;
  Ssa.retarget (Ssa.mk_instr Op.Br [||] [| b |] Types.Void) [| x.t |];
  check_int "count unchanged" c0 x.f.Ssa.edit_count;
  Alcotest.(check (list int)) "stamps unchanged" s0 (stamps ())

(* ------------------------------------------------------------------ *)
(* Manager unit tests: the cache rule *)

let test_reuse_and_pdt_share () =
  let f, _, _, _, _ = diamond_cfg () in
  let m = M.create f in
  let s = M.stats m in
  (* divergence computes a post-dominator tree internally; the explicit
     postdomtree query right after must be a cache hit *)
  let d = M.divergence m in
  ignore (M.postdomtree m);
  check "postdomtree shared with divergence" true (s.M.reuses >= 1);
  let d2 = M.divergence m in
  check "repeat query serves the same result" true (d == d2);
  check "recomputes_avoided tracks reuses" true (M.recomputes_avoided m >= 2)

(* an operand edit leaves the CFG alone, and still every query after it
   recomputes *)
let test_edit_drops_all () =
  let x = fixture () in
  let m = M.create x.f in
  let s = M.stats m in
  let query_all () =
    ignore (M.reachable m);
    ignore (M.domtree m);
    ignore (M.divergence m)
  in
  query_all ();
  let c0 = s.M.computes in
  query_all ();
  check_int "no edit: served from cache" c0 s.M.computes;
  Ssa.set_operand x.cmp 1 (Ssa.Int 4);
  query_all ();
  check_int "after an edit: all three recomputed" (c0 + 3) s.M.computes

(* nothing is reported to the manager, and the next query still sees
   the rewired CFG *)
let test_unreported_edit_not_stale () =
  let f, e, t, fl, _ = diamond_cfg () in
  let m = M.create f in
  let before = M.domtree m in
  (* the join's idom moves from entry to t *)
  Ssa.redirect_edge e ~old_dest:fl ~new_dest:t;
  let after = M.domtree m in
  check "domtree equals a fresh compute" true
    (A.Domtree.equal after (A.Domtree.compute f));
  check "and differs from the pre-edit tree" false
    (A.Domtree.equal before after)

let test_analysis_equal_sanity () =
  let f, e, t, fl, _ = diamond_cfg () in
  let f2, _, _, _, _ = diamond_cfg () in
  check "Domtree.equal reflexive across recomputes" true
    (A.Domtree.equal (A.Domtree.compute f) (A.Domtree.compute f));
  check "Divergence.equal reflexive across recomputes" true
    (A.Divergence.equal (A.Divergence.compute f) (A.Divergence.compute f));
  (* collapse the diamond in f2's clone-by-construction: domtree differs *)
  let dt = A.Domtree.compute f in
  Ssa.redirect_edge e ~old_dest:fl ~new_dest:t;
  check "Domtree.equal detects a CFG change" false
    (A.Domtree.equal dt (A.Domtree.compute f));
  ignore f2

(* ------------------------------------------------------------------ *)
(* The walk and the summaries against their definitions: what
   [match_subgraphs] returns is an isomorphism, and a summary scores
   and bounds a pair as FP_S over that isomorphism does — the facts the
   prefilter's exactness rests on.  Checked over every subgraph pair of
   every meldable region of the registry kernels and a band of
   fuzz-generated kernels, with Gen smoke seed 148 and Gen default seed
   20, whose isomorphic pairs include three that score one ulp above
   the exact ratio bound; the pair counts are asserted non-zero so no
   property passes vacuously. *)

let lat = Pass.default_config.Pass.latency

let subject_funcs () : Ssa.func list =
  let depth4 = { G.default_cfg with G.max_depth = 4 } in
  List.map
    (fun (k : Kernel.t) ->
      (k.Kernel.make ~seed:1
         ~block_size:(List.hd k.Kernel.block_sizes)
         ~n:k.Kernel.default_n)
        .Kernel.func)
    Registry.all
  @ List.map (fun seed -> G.generate ~cfg:depth4 ~seed ()) (Testlib.seeds 0 10)
  @ [
      G.generate ~cfg:G.smoke_cfg ~seed:148 ();
      G.generate ~cfg:G.default_cfg ~seed:20 ();
    ]

(* [f sides] for the two subgraph sequences of every meldable region of
   every subject *)
let for_each_region (f : Region.subgraph list * Region.subgraph list -> unit)
    : unit =
  List.iter
    (fun (fn : Ssa.func) ->
      let dvg = A.Divergence.compute fn in
      let dt = A.Domtree.compute fn in
      let pdt = A.Domtree.compute_post fn in
      List.iter
        (fun bl ->
          match Region.detect dvg dt pdt bl with
          | None -> ()
          | Some r ->
              f (Region.true_subgraphs pdt r, Region.false_subgraphs pdt r))
        fn.Ssa.blocks_list)
    (subject_funcs ())

(* [f st sf pairs] for every isomorphic subgraph pair; returns how many *)
let for_each_isomorphic_pair
    (f : Region.subgraph -> Region.subgraph -> (Ssa.block * Ssa.block) list ->
    unit) : int =
  let matched = ref 0 in
  for_each_region (fun (ts, fs) ->
      List.iter
        (fun st ->
          List.iter
            (fun sf ->
              match Iso.match_subgraphs st sf with
              | None -> ()
              | Some pairs ->
                  incr matched;
                  f st sf pairs)
            fs)
        ts);
  !matched

(* what [match_subgraphs] returned is an isomorphism: a bijection from
   entry to entry that keeps each terminator's opcode and pairs
   successor k with successor k, or sends both to their exits *)
let check_isomorphism (st : Region.subgraph) (sf : Region.subgraph)
    (pairs : (Ssa.block * Ssa.block) list) : unit =
  let fwd = Hashtbl.create 8 and bwd = Hashtbl.create 8 in
  List.iter
    (fun ((a : Ssa.block), (b : Ssa.block)) ->
      Hashtbl.replace fwd a.Ssa.bid b;
      Hashtbl.replace bwd b.Ssa.bid a)
    pairs;
  (match pairs with
  | (a, b) :: _ ->
      check "entry pairs with entry" true
        (a == st.Region.sg_entry && b == sf.Region.sg_entry)
  | [] -> Alcotest.fail "empty correspondence");
  check "a bijection between the two block sets" true
    (List.length pairs = Region.subgraph_size st
    && Hashtbl.length fwd = Region.subgraph_size st
    && Hashtbl.length bwd = Region.subgraph_size sf
    && List.for_all
         (fun (a, b) -> Region.in_subgraph st a && Region.in_subgraph sf b)
         pairs);
  List.iter
    (fun ((a : Ssa.block), (b : Ssa.block)) ->
      let ta = Ssa.terminator a and tb = Ssa.terminator b in
      check "terminator opcode kept" true (ta.Ssa.op = tb.Ssa.op);
      check "successor counts equal" true
        (Array.length ta.Ssa.blocks = Array.length tb.Ssa.blocks);
      Array.iteri
        (fun k (sa : Ssa.block) ->
          let sb = tb.Ssa.blocks.(k) in
          check "successor k pairs with successor k, or both exit" true
            (match Hashtbl.find_opt fwd sa.Ssa.bid with
            | Some b' -> b' == sb
            | None ->
                sa == st.Region.sg_exit_dest && sb == sf.Region.sg_exit_dest))
        ta.Ssa.blocks)
    pairs

(* a subgraph of fresh blocks b0..bn-1 (entry b0): block k branches to
   the blocks [succs.(k)] lists by index, [-1] being the exit; one
   successor makes a br, two a condbr *)
let hand_subgraph (succs : int list list) : Region.subgraph =
  let blocks =
    Array.of_list
      (List.mapi (fun k _ -> Ssa.mk_block (Printf.sprintf "b%d" k)) succs)
  in
  let exit = Ssa.mk_block "exit" in
  List.iteri
    (fun k targets ->
      let dests =
        Array.of_list
          (List.map (fun t -> if t < 0 then exit else blocks.(t)) targets)
      in
      let op, operands =
        if Array.length dests = 1 then (Op.Br, [||])
        else (Op.Condbr, [| Ssa.Bool true |])
      in
      Ssa.append_instr blocks.(k) (Ssa.mk_instr op operands dests Types.Void))
    succs;
  let members = Hashtbl.create 8 in
  Array.iter (fun (b : Ssa.block) -> Hashtbl.replace members b.Ssa.bid b) blocks;
  {
    Region.sg_entry = blocks.(0);
    sg_blocks = members;
    sg_exit_src = blocks.(Array.length blocks - 1);
    sg_exit_dest = exit;
  }

(* pairs that a walk blind to terminator kinds, or to which earlier
   block a successor revisits, would match *)
let hand_mismatches =
  [
    (* condbr (b1, exit); b1: br exit — against br b1; b1: condbr (exit,
       exit) *)
    ([ [ 1; -1 ]; [ -1 ] ], [ [ 1 ]; [ -1; -1 ] ]);
    (* condbr (b1, b2); b1: br b2 — against condbr (b1, b1); b1: br b2 *)
    ([ [ 1; 2 ]; [ 2 ]; [ -1 ] ], [ [ 1; 1 ]; [ 2 ]; [ -1 ] ]);
  ]

let test_match_is_isomorphism () =
  check "some pair is isomorphic" true
    (for_each_isomorphic_pair check_isomorphism > 0);
  List.iter
    (fun (a, b) ->
      let sa = hand_subgraph a in
      let sa' = hand_subgraph a and sb = hand_subgraph b in
      check "hand-built pair is not isomorphic" true
        (Iso.match_subgraphs sa sb = None);
      match Iso.match_subgraphs sa sa' with
      | Some pairs -> check_isomorphism sa sa' pairs
      | None -> Alcotest.fail "a hand-built shape does not match its copy")
    hand_mismatches

let test_match_self () =
  let subgraphs = ref 0 in
  for_each_region (fun (ts, fs) ->
      List.iter
        (fun sg ->
          incr subgraphs;
          match Iso.match_subgraphs sg sg with
          | None -> Alcotest.fail "a subgraph does not match itself"
          | Some pairs ->
              check "the identity on every block" true
                (List.length pairs = Region.subgraph_size sg
                && List.for_all (fun (a, b) -> a == b) pairs))
        (ts @ fs));
  check "some subgraph was walked" true (!subgraphs > 0)

let summary = Prof.summarize lat

(* the prefilter's bound dominates the computed FP_S of every
   isomorphic pair: [may_profit] admits it at the threshold one ulp
   below its score, which holds exactly when the bound is at least the
   score *)
let test_similarity_bounds () =
  let matched =
    for_each_isomorphic_pair (fun st sf pairs ->
        check "may_profit just below FP_S" true
          (Prof.may_profit
             ~threshold:(Float.pred (Prof.fp_s lat pairs))
             (summary st) (summary sf)))
  in
  check "at least one isomorphic pair exercised the bound" true (matched > 0)

let test_score_is_fp_s () =
  let pairs = ref 0 in
  for_each_region (fun (ts, fs) ->
      List.iter
        (fun st ->
          List.iter
            (fun sf ->
              incr pairs;
              let bits = Option.map Int64.bits_of_float in
              check "score is fp_s over match_subgraphs, bit for bit" true
                (bits (Prof.score (summary st) (summary sf))
                = bits
                    (Option.map (Prof.fp_s lat)
                       (Iso.match_subgraphs st sf))))
            fs)
        ts);
  check "some pair was scored" true (!pairs > 0)

(* ------------------------------------------------------------------ *)
(* Prefilter exactness: meld decisions byte-identical with the
   prefilter on and off *)

let meld_key (m : Pass.meld_record) : string =
  Printf.sprintf "%d:%s:%s:%s:%.9g" m.Pass.m_index m.Pass.m_region
    m.Pass.m_st m.Pass.m_sf m.Pass.m_fp_s

let melds_string (s : Pass.stats) : string =
  String.concat ";" (List.map meld_key s.Pass.melds)

(* run the pass twice on independently-built copies of the same
   function and demand identical decisions and identical final IR *)
let check_identity ~tag (base : Pass.config) (mk : unit -> Ssa.func) :
    Pass.stats * Pass.stats =
  let f_on = mk () and f_off = mk () in
  let s_on = Pass.run ~config:{ base with Pass.prefilter = true } f_on in
  let s_off = Pass.run ~config:{ base with Pass.prefilter = false } f_off in
  Alcotest.(check string)
    (tag ^ ": meld decisions identical")
    (melds_string s_off) (melds_string s_on);
  Alcotest.(check string)
    (tag ^ ": final IR identical")
    (Printer.func_to_string f_off) (Printer.func_to_string f_on);
  (s_on, s_off)

let registry_mk (k : Kernel.t) () : Ssa.func =
  (k.Kernel.make ~seed:1
     ~block_size:(List.hd k.Kernel.block_sizes)
     ~n:k.Kernel.default_n)
    .Kernel.func

let test_prefilter_identity_registry () =
  let filtered = ref 0 in
  List.iter
    (fun (k : Kernel.t) ->
      let s_on, s_off =
        check_identity ~tag:k.Kernel.tag Pass.default_config (registry_mk k)
      in
      filtered := !filtered + s_on.Pass.candidates_prefiltered;
      check
        (k.Kernel.tag ^ ": prefilter never scores more pairs")
        true
        (s_on.Pass.pairs_scored <= s_off.Pass.pairs_scored))
    Registry.all;
  check "prefilter skipped work somewhere on the registry" true (!filtered > 0)

let test_prefilter_identity_alignment () =
  let base = { Pass.default_config with Pass.pairing = Pass.Alignment } in
  List.iter
    (fun (k : Kernel.t) ->
      ignore (check_identity ~tag:("align:" ^ k.Kernel.tag) base (registry_mk k)))
    Registry.all

(* every scored pair emits one meld.decision instant, under either
   pairing: Alignment scores each pair of a search once, as Greedy
   does *)
let test_decision_per_scored_pair () =
  List.iter
    (fun pairing ->
      List.iter
        (fun (k : Kernel.t) ->
          let tr = Darm_obs.Trace.create () in
          let s =
            Pass.run
              ~config:{ Pass.default_config with Pass.pairing; obs = Some tr }
              (registry_mk k ())
          in
          let decisions =
            List.length
              (List.filter
                 (fun (e : Darm_obs.Trace.event) ->
                   e.Darm_obs.Trace.ev_name = "meld.decision")
                 (Darm_obs.Trace.events tr))
          in
          check_int
            (k.Kernel.tag ^ ": one decision per scored pair")
            s.Pass.pairs_scored decisions)
        Registry.all)
    [ Pass.Greedy; Pass.Alignment ]

(* corpus replay: every parseable corpus kernel must produce the same
   outcome (same decisions and IR, or the same failure) either way *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let test_prefilter_identity_corpus () =
  let entries = if Sys.file_exists corpus_dir then C.load_dir corpus_dir else [] in
  let outcome prefilter (text : string) : string =
    match Parser.parse_func text with
    | Error e -> "unparseable:" ^ e
    | Ok f -> (
        match
          Pass.run ~config:{ Pass.default_config with Pass.prefilter } f
        with
        | s ->
            Printf.sprintf "ok|%s|%s" (melds_string s)
              (Printer.func_to_string f)
        | exception exn -> "raised:" ^ Printexc.to_string exn)
  in
  List.iter
    (fun (path, parsed) ->
      match parsed with
      | Error _ -> ()
      | Ok entry ->
          Alcotest.(check string)
            (Filename.basename path ^ ": corpus outcome identical")
            (outcome false entry.C.en_text)
            (outcome true entry.C.en_text))
    entries

(* ------------------------------------------------------------------ *)
(* Whole-pass properties over fuzz-generated kernels *)

let fuzz_cfg = { G.default_cfg with G.max_depth = 3 }

let prop_prefilter_identity_fuzz =
  qcheck
    (QCheck2.Test.make ~count:20
       ~name:"prefilter decisions identical on fuzz kernels"
       QCheck2.Gen.(int_range 0 500)
       (fun seed ->
         ignore
           (check_identity
              ~tag:("fuzz-" ^ string_of_int seed)
              Pass.default_config
              (fun () -> G.generate ~cfg:fuzz_cfg ~seed ()));
         true))

let suites =
  [
    ( "incremental manager",
      [
        Alcotest.test_case "reuse + pdt/divergence sharing" `Quick
          test_reuse_and_pdt_share;
        Alcotest.test_case "an edit drops every analysis" `Quick
          test_edit_drops_all;
        Alcotest.test_case "unreported edit is not stale" `Quick
          test_unreported_edit_not_stale;
        Alcotest.test_case "analysis equal sanity" `Quick
          test_analysis_equal_sanity;
        Alcotest.test_case "detached edits bump nothing" `Quick
          test_detached_bumps_nothing;
      ]
      @ List.map
          (fun (name, edit) ->
            Alcotest.test_case (name ^ " bumps the count") `Quick
              (test_bumps edit))
          mutators );
    ( "similarity prefilter",
      [
        Alcotest.test_case "upper bound dominates FP_S" `Quick
          test_similarity_bounds;
        Alcotest.test_case "walk pairs an isomorphism" `Quick
          test_match_is_isomorphism;
        Alcotest.test_case "walk matches itself" `Quick test_match_self;
        Alcotest.test_case "score is fp_s of the match" `Quick
          test_score_is_fp_s;
        Alcotest.test_case "decision identity: registry (greedy)" `Quick
          test_prefilter_identity_registry;
        Alcotest.test_case "decision identity: registry (alignment)" `Quick
          test_prefilter_identity_alignment;
        Alcotest.test_case "decisions equal pairs scored" `Quick
          test_decision_per_scored_pair;
        Alcotest.test_case "decision identity: corpus replay" `Quick
          test_prefilter_identity_corpus;
        prop_prefilter_identity_fuzz;
      ] );
  ]
