(* Incremental analysis manager + similarity prefilter (the caching /
   candidate-search layer): the invalidation table per edit kind,
   debug-mode cross-validation catching under-reported edits, and the
   exactness of the meld-candidate prefilter — decisions must be byte-identical with it on or off, over
   the registry, the regression corpus, and fuzz-generated kernels. *)

open Darm_ir
module A = Darm_analysis
module M = A.Manager
module E = A.Edit
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
(* Manager unit tests: the invalidation table *)

let test_reuse_and_pdt_share () =
  let f, _, _, _, _ = diamond_cfg () in
  let m = M.create ~debug:true f in
  let s = M.stats m in
  (* divergence computes a post-dominator tree internally; the explicit
     postdomtree query right after must be a cache hit *)
  let d = M.divergence m in
  ignore (M.postdomtree m);
  check "postdomtree shared with divergence" true (s.M.reuses >= 1);
  let d2 = M.divergence m in
  check "repeat query serves the same result" true (d == d2);
  check "recomputes_avoided tracks reuses" true (M.recomputes_avoided m >= 2)

let test_dce_drops_divergence_only () =
  let f, _, t, _, _ = diamond_cfg () in
  let m = M.create ~debug:true f in
  ignore (M.divergence m);
  ignore (M.domtree m);
  let s = M.stats m in
  let c0 = s.M.computes in
  M.note m (E.Dce [ t.Ssa.bid ]);
  ignore (M.domtree m);
  check_int "CFG-derived analyses survive Dce" c0 s.M.computes;
  ignore (M.divergence m);
  check "divergent-id set may shrink: divergence recomputed" true
    (s.M.computes > c0)

let test_cfg_local_drops_cfg () =
  let f, _, t, _, _ = diamond_cfg () in
  let m = M.create ~debug:true f in
  ignore (M.domtree m);
  ignore (M.divergence m);
  let s = M.stats m in
  let c0 = s.M.computes in
  M.note m (E.Cfg_local [ t.Ssa.bid ]);
  ignore (M.domtree m);
  ignore (M.divergence m);
  check "Cfg_local recomputes domtree and divergence" true
    (s.M.computes >= c0 + 2)

let test_invalidate_all () =
  let f, _, _, _, _ = diamond_cfg () in
  let m = M.create ~debug:true f in
  ignore (M.divergence m);
  ignore (M.domtree m);
  let s = M.stats m in
  let inv0 = s.M.invalidations in
  M.invalidate_all m;
  check "invalidate_all drops cached results" true (s.M.invalidations > inv0);
  let c0 = s.M.computes in
  ignore (M.domtree m);
  check "domtree recomputed after invalidate_all" true (s.M.computes > c0)

let test_debug_catches_underreport () =
  let f, e, t, fl, _ = diamond_cfg () in
  let m = M.create ~debug:true f in
  ignore (M.domtree m);
  (* rewire the false arm onto the true arm WITHOUT telling the
     manager: the join's idom moves from entry to t, so the next
     cache-served domtree query must fail the debug cross-check *)
  Ssa.redirect_edge e ~old_dest:fl ~new_dest:t;
  let raised =
    try
      ignore (M.domtree m);
      false
    with M.Stale_analysis _ -> true
  in
  check "stale domtree caught by debug mode" true raised

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
    (Pass.snapshot_func f_off) (Pass.snapshot_func f_on);
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
        | s -> Printf.sprintf "ok|%s|%s" (melds_string s) (Pass.snapshot_func f)
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

(* incremental == from-scratch: the debug manager cross-validates every
   cache-served query along real meld edit sequences (meld, simplify,
   cleanups, Vreject rollback); any under-reported edit raises
   Stale_analysis and fails the property *)
let prop_debug_no_stale =
  qcheck
    (QCheck2.Test.make ~count:20
       ~name:"debug pass over fuzz kernels raises no Stale_analysis"
       QCheck2.Gen.(int_range 0 500)
       (fun seed ->
         let run validate =
           let f = G.generate ~cfg:fuzz_cfg ~seed () in
           ignore
             (Pass.run
                ~config:
                  {
                    Pass.default_config with
                    Pass.analysis_debug = true;
                    validate;
                  }
                f)
         in
         run Pass.Vnone;
         run Pass.Vreject;
         true))

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

(* the debug pass over the registry — the same gate scripts/ci.sh runs,
   pinned here so a plain `dune runtest` catches staleness too *)
let test_debug_registry () =
  List.iter
    (fun (k : Kernel.t) ->
      let f = registry_mk k () in
      let s =
        Pass.run
          ~config:{ Pass.default_config with Pass.analysis_debug = true }
          f
      in
      check
        (k.Kernel.tag ^ ": manager reused analyses")
        true
        (s.Pass.analysis_recomputes_avoided >= 0))
    Registry.all

let suites =
  [
    ( "incremental manager",
      [
        Alcotest.test_case "reuse + pdt/divergence sharing" `Quick
          test_reuse_and_pdt_share;
        Alcotest.test_case "Dce drops divergence only" `Quick
          test_dce_drops_divergence_only;
        Alcotest.test_case "Cfg_local drops CFG analyses" `Quick
          test_cfg_local_drops_cfg;
        Alcotest.test_case "invalidate_all" `Quick test_invalidate_all;
        Alcotest.test_case "debug mode catches under-reported edit" `Quick
          test_debug_catches_underreport;
        Alcotest.test_case "analysis equal sanity" `Quick
          test_analysis_equal_sanity;
        Alcotest.test_case "debug pass over the registry" `Slow
          test_debug_registry;
        prop_debug_no_stale;
      ] );
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
