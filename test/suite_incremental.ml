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
   count to bump, and leave every function's alone *)
let test_detached_bumps_nothing () =
  let x = fixture () in
  let c0 = x.f.Ssa.edit_count in
  let b = Ssa.mk_block "loose" in
  let i = fresh_tid () in
  Ssa.append_instr b i;
  Ssa.set_operands i [||];
  Ssa.remove_instr b i;
  Ssa.retarget (Ssa.mk_instr Op.Br [||] [| b |] Types.Void) [| x.t |];
  check_int "count unchanged" c0 x.f.Ssa.edit_count

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
(* Similarity vs the exhaustive search: compatible is necessary for
   isomorphism and profit_upper_bound bounds FP_S from above — the two
   facts the prefilter's exactness rests on.  Checked over every
   subgraph pair of every meldable region of the registry kernels plus
   a band of fuzz-generated kernels; the pair count is asserted
   non-zero so the property cannot pass vacuously. *)

let sg_sig lat (sg : Region.subgraph) : A.Similarity.t =
  A.Similarity.signature ~lat
    ~blocks:(Region.subgraph_block_list sg)
    ~entry:sg.Region.sg_entry
    ~in_subgraph:(Region.in_subgraph sg)
    ~exit_dest:sg.Region.sg_exit_dest

let check_bounds_on_func lat (f : Ssa.func) (matched : int ref) : unit =
  let dvg = A.Divergence.compute f in
  let dt = A.Domtree.compute f in
  let pdt = A.Domtree.compute_post f in
  List.iter
    (fun bl ->
      match Region.detect dvg dt pdt bl with
      | None -> ()
      | Some r ->
          let ts = Region.true_subgraphs pdt r in
          let fs = Region.false_subgraphs pdt r in
          List.iter
            (fun st ->
              List.iter
                (fun sf ->
                  let sa = sg_sig lat st and sb = sg_sig lat sf in
                  match Iso.match_subgraphs st sf with
                  | None -> ()
                  | Some pairs ->
                      incr matched;
                      check "isomorphic pair is signature-compatible" true
                        (A.Similarity.compatible sa sb);
                      let fp = Prof.fp_s lat pairs in
                      check "profit_upper_bound dominates FP_S" true
                        (A.Similarity.profit_upper_bound sa sb >= fp -. 1e-9))
                fs)
            ts)
    f.Ssa.blocks_list

let test_similarity_bounds () =
  let lat = Pass.default_config.Pass.latency in
  let matched = ref 0 in
  List.iter
    (fun (k : Kernel.t) ->
      let inst =
        k.Kernel.make ~seed:1
          ~block_size:(List.hd k.Kernel.block_sizes)
          ~n:k.Kernel.default_n
      in
      check_bounds_on_func lat inst.Kernel.func matched)
    Registry.all;
  let cfg = { G.default_cfg with G.max_depth = 4 } in
  for seed = 0 to 10 do
    check_bounds_on_func lat (G.generate ~cfg ~seed ()) matched
  done;
  check "at least one isomorphic pair exercised the bound" true (!matched > 0)

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
        Alcotest.test_case "decision identity: registry (greedy)" `Quick
          test_prefilter_identity_registry;
        Alcotest.test_case "decision identity: registry (alignment)" `Quick
          test_prefilter_identity_alignment;
        Alcotest.test_case "decision identity: corpus replay" `Quick
          test_prefilter_identity_corpus;
        prop_prefilter_identity_fuzz;
      ] );
  ]
