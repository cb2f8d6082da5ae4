(** The DARM melding pass driver (paper Algorithm 1).

    Repeatedly: find a meldable divergent region, decompose both paths
    into SESE subgraph sequences, greedily pick the most profitable
    isomorphic subgraph pair (FP_S above the threshold, ties broken
    towards the pair that dominates the most remaining subgraphs), meld
    it, clean up, recompute the control-flow analyses — until no
    profitable meld remains.

    [diamonds_only] restricts the transformation to regions whose two
    paths are single basic blocks, which is exactly the {e branch
    fusion} baseline of Coutinho et al. (Table I). *)

open Darm_ir.Ssa
module Latency = Darm_analysis.Latency
module Domtree = Darm_analysis.Domtree
module Divergence = Darm_analysis.Divergence
module Manager = Darm_analysis.Manager

(** How the subgraph pair to meld is chosen (paper §IV-C): [Greedy] is
    the paper's implementation (m x n profitability comparison);
    [Alignment] computes an optimal order-preserving Needleman–Wunsch
    alignment of the two subgraph sequences first (Definition 7) and
    picks the most profitable aligned pair. *)
type pairing = Greedy | Alignment

exception Validation_failed of string

type config = {
  latency : Latency.config;
  pairing : pairing;
  threshold : float;  (** minimum FP_S to meld; the paper uses a small
                          positive cutoff *)
  unpredicate : bool;  (** move {e all} gap runs out of line (§IV-E);
                           unsafe-to-speculate runs always move *)
  diamonds_only : bool;  (** branch-fusion compatibility mode *)
  if_convert_after : bool;
      (** re-run the predicating if-conversion after the pass, modelling
          the later -O3 pipeline (the paper's §VI-C observation) *)
  obs : Darm_obs.Trace.t option;
      (** trace buffer for pass-pipeline spans and meld-decision events
          (see doc/observability.md); [None] = no instrumentation *)
  prefilter : bool;
      (** skip subgraph pairs whose {!Profitability.summary} values
          prove the exhaustive search would reject them (walk shapes
          differ, or the FP_S upper bound is at most the threshold);
          meld decisions are unchanged *)
}

let default_config : config =
  {
    latency = Latency.default;
    pairing = Greedy;
    threshold = 0.1;
    unpredicate = true;
    diamonds_only = false;
    if_convert_after = false;
    obs = None;
    (* [DARM_NO_PREFILTER] set (non-empty, non-"0") when the program
       starts forces the exhaustive candidate search; the CI
       equivalence stages use it *)
    prefilter =
      (match Sys.getenv_opt "DARM_NO_PREFILTER" with
      | Some ("" | "0") | None -> true
      | Some _ -> false);
  }

let branch_fusion_config : config =
  { default_config with diamonds_only = true }

(* Algorithm 1 stops at a fixpoint; this cap only bounds a pass that
   keeps finding profitable pairs *)
let max_iterations = 64

(* the fields that decide the printed IR, in a fixed order; the batch
   result cache keys on this string, so its bytes are part of the
   cache's key space.  The iteration-cap, cleanup and validation
   entries are fixed text: the cap is a constant, the cleanups always
   run and a checked run prints the IR a plain one does, so they name
   no choice, but stored keys carry them. *)
let signature (c : config) : string =
  let l = c.latency in
  Printf.sprintf
    "darm|pairing=%s|threshold=%g|unpredicate=%b|diamonds_only=%b|max_iterations=64|run_cleanups=true|if_convert_after=%b|validate=none|lat=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d"
    (match c.pairing with Greedy -> "greedy" | Alignment -> "alignment")
    c.threshold c.unpredicate c.diamonds_only c.if_convert_after
    l.Latency.alu l.Latency.mul l.Latency.div l.Latency.falu l.Latency.fdiv
    l.Latency.cast l.Latency.select l.Latency.branch l.Latency.shared_mem
    l.Latency.global_mem l.Latency.flat_mem l.Latency.barrier
    l.Latency.intrinsic

(** Provenance of one applied meld — the join key between the pass and
    the simulator's per-branch divergence attribution ([darm_opt
    report]). *)
type meld_record = {
  m_index : int;  (** 1-based application order within the run *)
  m_region : string;
      (** region entry block: the divergent branch this meld targets —
          its name is the stable static branch id the simulator
          reports divergence under *)
  m_st : string;  (** melded true-path subgraph entry *)
  m_sf : string;  (** melded false-path subgraph entry *)
  m_fp_s : float;  (** the FP_S profitability score that won *)
  m_branches : string list;
      (** static branch ids subsumed by this meld: the region entry
          plus every conditional branch inside the two melded
          subgraphs, sorted *)
}

type stats = {
  mutable iterations : int;
  mutable regions_found : int;
  mutable regions_reused : int;
      (** divergent-branch lookups served from memory: an earlier
          search of the same region found no candidate, and nothing it
          read has changed since *)
  mutable melds_applied : int;
  mutable pairs_scored : int;
      (** subgraph pairs that went through isomorphism matching + FP_S
          scoring, each at most once per search *)
  mutable candidates_prefiltered : int;
      (** subgraph pair evaluations skipped by the similarity
          prefilter *)
  mutable analysis_recomputes_avoided : int;
      (** analysis queries of the run served from the analysis cache *)
  mutable melds : meld_record list;
      (** provenance of the applied melds, in application order *)
  meld_stats : Meld.stats;
}

let empty_stats () =
  {
    iterations = 0;
    regions_found = 0;
    regions_reused = 0;
    melds_applied = 0;
    pairs_scored = 0;
    candidates_prefiltered = 0;
    analysis_recomputes_avoided = 0;
    melds = [];
    meld_stats = Meld.empty_stats ();
  }

type candidate = {
  c_region : Region.t;
  c_st : Region.subgraph;
  c_sf : Region.subgraph;
  c_profit : float;
  c_rank : int;  (** position sum: smaller dominates more of the rest *)
}

(* Provenance must be captured BEFORE apply_candidate: normalization
   adds blocks and melding removes the subgraphs' blocks, so the
   subsumed branch ids are only readable from the pre-meld subgraphs. *)
let record_of_candidate (c : candidate) (index : int) : meld_record =
  let condbrs sg =
    List.filter_map
      (fun b ->
        if has_terminator b && (terminator b).op = Darm_ir.Op.Condbr then
          Some b.bname
        else None)
      (Region.subgraph_block_list sg)
  in
  let branches =
    c.c_region.Region.r_entry.bname :: (condbrs c.c_st @ condbrs c.c_sf)
    |> List.sort_uniq String.compare
  in
  {
    m_index = index;
    m_region = c.c_region.Region.r_entry.bname;
    m_st = c.c_st.Region.sg_entry.bname;
    m_sf = c.c_sf.Region.sg_entry.bname;
    m_fp_s = c.c_profit;
    m_branches = branches;
  }

(* one auditable event per scored subgraph pair: Algorithm 1's
   accept/reject of FP_S against the threshold *)
let obs_decision (cfg : config) (r : Region.t) (st : Region.subgraph)
    (sf : Region.subgraph) (profit : float) : unit =
  match cfg.obs with
  | None -> ()
  | Some tr ->
      Darm_obs.Trace.instant tr ~cat:"pass"
        ~args:
          [
            ("region", Darm_obs.Trace.Str r.Region.r_entry.bname);
            ("st", Darm_obs.Trace.Str st.Region.sg_entry.bname);
            ("sf", Darm_obs.Trace.Str sf.Region.sg_entry.bname);
            ("fp_s", Darm_obs.Trace.Float profit);
            ("threshold", Darm_obs.Trace.Float cfg.threshold);
            ("accepted", Darm_obs.Trace.Bool (profit > cfg.threshold));
          ]
        "meld.decision"

let candidate (r : Region.t) (st : Region.subgraph) (sf : Region.subgraph)
    (profit : float) (rank : int) : candidate =
  { c_region = r; c_st = st; c_sf = sf; c_profit = profit; c_rank = rank }

(* Greedy MostProfitableSubgraphPair: m x n comparison (paper §IV-C).
   Both pairings read [profits.(ti).(fi)], the FP_S of the [ti]-th
   true-path and the [fi]-th false-path subgraph when the pair was
   scored and is isomorphic. *)
let best_pair_greedy (cfg : config) (r : Region.t)
    (t_sgs : Region.subgraph array) (f_sgs : Region.subgraph array)
    (profits : float option array array) : candidate option =
  let best = ref None in
  Array.iteri
    (fun ti row ->
      Array.iteri
        (fun fi p ->
          match p with
          | Some profit when profit > cfg.threshold -> (
              let rank = ti + fi in
              match !best with
              | Some b
                when b.c_profit > profit
                     || (b.c_profit = profit && b.c_rank <= rank) ->
                  ()
              | _ ->
                  best := Some (candidate r t_sgs.(ti) f_sgs.(fi) profit rank))
          | Some _ | None -> ())
        row)
    profits;
  !best

(* Subgraph-sequence alignment (Definition 7): an order-preserving
   Needleman-Wunsch over the two sequences, scored by FP_S; the most
   profitable aligned pair is melded this iteration (the rest re-align
   after the CFG is rebuilt). *)
let best_pair_alignment (cfg : config) (r : Region.t)
    (t_sgs : Region.subgraph array) (f_sgs : Region.subgraph array)
    (profits : float option array array) : candidate option =
  let accepted ti fi =
    match profits.(ti).(fi) with
    | Some p when p > cfg.threshold -> Some p
    | Some _ | None -> None
  in
  let aligned, _ =
    Darm_align.Sequence.needleman_wunsch ~score:accepted ~gap_open:0.
      ~gap_extend:0.
      (Array.init (Array.length t_sgs) Fun.id)
      (Array.init (Array.length f_sgs) Fun.id)
  in
  List.fold_left
    (fun acc item ->
      match item with
      | Darm_align.Sequence.Both (ti, fi) -> (
          match accepted ti fi, acc with
          | None, _ -> acc
          | Some profit, Some b when b.c_profit >= profit -> acc
          | Some profit, _ ->
              Some (candidate r t_sgs.(ti) f_sgs.(fi) profit 0))
      | Darm_align.Sequence.Left _ | Darm_align.Sequence.Right _ -> acc)
    None aligned

let best_pair ~stats (cfg : config) (r : Region.t)
    (pdt : Domtree.t) : candidate option =
  let t_sgs = Array.of_list (Region.true_subgraphs pdt r) in
  let f_sgs = Array.of_list (Region.false_subgraphs pdt r) in
  let single_block sg = Region.subgraph_size sg = 1 in
  if
    cfg.diamonds_only
    && not
         (Array.length t_sgs = 1 && Array.length f_sgs = 1
         && single_block t_sgs.(0) && single_block f_sgs.(0))
  then None
  else begin
    (* one summary per subgraph per search *)
    let t_sums = Array.map (Profitability.summarize cfg.latency) t_sgs in
    let f_sums = Array.map (Profitability.summarize cfg.latency) f_sgs in
    (* every pair once, in row-major order: skipped when the prefilter
       proves the exhaustive search would reject it (so the winner is
       unchanged), else scored, with a decision event when isomorphic *)
    let profits =
      Array.init (Array.length t_sgs) (fun ti ->
          Array.init (Array.length f_sgs) (fun fi ->
              let a = t_sums.(ti) and b = f_sums.(fi) in
              if
                cfg.prefilter
                && not
                     (Profitability.may_profit ~threshold:cfg.threshold a b)
              then begin
                stats.candidates_prefiltered <-
                  stats.candidates_prefiltered + 1;
                None
              end
              else begin
                stats.pairs_scored <- stats.pairs_scored + 1;
                let p = Profitability.score a b in
                Option.iter (obs_decision cfg r t_sgs.(ti) f_sgs.(fi)) p;
                p
              end))
    in
    match cfg.pairing with
    | Greedy -> best_pair_greedy cfg r t_sgs f_sgs profits
    | Alignment -> best_pair_alignment cfg r t_sgs f_sgs profits
  end

(* Meld one candidate; the subgraphs are re-matched after normalization
   since normalization adds the dedicated exit blocks. *)
let apply_candidate (cfg : config) (f : func) (c : candidate)
    (stats : stats) : unit =
  let st = Simplify_region.normalize_exit f c.c_st in
  let sf = Simplify_region.normalize_exit f c.c_sf in
  let st, pre_t = Simplify_region.normalize_entry f st in
  let sf, pre_f = Simplify_region.normalize_entry f sf in
  let pairs =
    match Isomorphism.match_subgraphs st sf with
    | Some p -> p
    | None ->
        invalid_arg
          "Pass.apply_candidate: normalization broke subgraph isomorphism"
  in
  ignore
    (Meld.run f ~cond:c.c_region.Region.r_cond ~lat:cfg.latency ~s_t:st
       ~s_f:sf ~pre_t ~pre_f ~pairs ~unpredicate:cfg.unpredicate
       ~stats:stats.meld_stats);
  stats.melds_applied <- stats.melds_applied + 1

(* A region whose search found no candidate, remembered by its entry:
   the function's edit count at the search, the region exit and the
   blocks of both sides. *)
type searched = { s_at : int; s_exit : block; s_sides : block list }

(* The search of [b]'s region would find no candidate again when [b]
   still ends in a divergent branch with the same immediate
   post-dominator, and neither [b] nor a side block has left the
   function or been stamped since the search.  Everything the search
   read is then as it was: [b]'s branch and every side block's
   instructions, operand types, successors and predecessors (so the
   sides, closed at the search, are the same sets, dominated by [b] and
   post-dominated by the exit, with the same cut points), and the
   subgraph summaries and scores derive from those alone. *)
let still_without_candidate (dvg : Divergence.t) (pdt : Domtree.t)
    (s : searched) (b : block) : bool =
  let clean blk = blk.bparent <> None && blk.edit_stamp <= s.s_at in
  Divergence.is_divergent_branch dvg b
  && (match Domtree.idom pdt b with Some x -> x == s.s_exit | None -> false)
  && clean b
  && List.for_all clean s.s_sides

let is_invalid_ir (d : Darm_checks.Diag.t) =
  String.equal d.Darm_checks.Diag.id Darm_checks.Checker.id_invalid_ir

(** Run the melding pass on [f] to a fixpoint; returns the statistics.
    A [checked] run re-runs the checkers (which verify [f] first) after
    every meld and raises [Validation_failed] when the meld added a
    checker error. *)
let run ?(config = default_config) ?(checked = false) (f : func) : stats =
  let stats = empty_stats () in
  (* the function's analysis cache serves every query below until the
     function is next edited, and may already hold its analyses *)
  let reuses0 = Manager.recomputes_avoided f in
  let obs_span name args body =
    match config.obs with
    | None -> body ()
    | Some tr -> Darm_obs.Trace.with_span tr ~cat:"pass" ~args name body
  in
  obs_span "pass.run"
    [ ("func", Darm_obs.Trace.Str f.fname) ]
  @@ fun () ->
  let continue_ = ref true in
  (* checked runs: the checker report of [f] after the last meld, which
     is the next meld's pre-meld report, since nothing edits [f] between
     the two *)
  let last_report = ref None in
  (* divergent branches whose region had no candidate, by entry bid *)
  let searched : (int, searched) Hashtbl.t = Hashtbl.create 64 in
  let search dvg dt pdt b =
    match Hashtbl.find_opt searched b.bid with
    | Some s when still_without_candidate dvg pdt s b ->
        stats.regions_reused <- stats.regions_reused + 1;
        None
    | Some _ | None -> (
        match Region.detect dvg dt pdt b with
        | None -> None
        | Some r ->
            stats.regions_found <- stats.regions_found + 1;
            let c = best_pair ~stats config r pdt in
            if Option.is_none c then
              Hashtbl.replace searched b.bid
                {
                  s_at = f.edit_count;
                  s_exit = r.Region.r_exit;
                  s_sides = r.Region.r_t_side @ r.Region.r_f_side;
                };
            c)
  in
  while !continue_ && stats.iterations < max_iterations do
    stats.iterations <- stats.iterations + 1;
    obs_span "pass.iteration"
      [ ("iteration", Darm_obs.Trace.Int stats.iterations) ]
    @@ fun () ->
    let dvg, dt, pdt =
      obs_span "pass.analysis" [] @@ fun () ->
      (* divergence first: it asks for the post-dominator tree, so the
         postdomtree query right after is a cache hit *)
      let dvg = Manager.divergence f in
      let dt = Manager.domtree f in
      let pdt = Manager.postdomtree f in
      (dvg, dt, pdt)
    in
    let candidate =
      obs_span "pass.candidates" [] @@ fun () ->
      List.fold_left
        (fun acc b ->
          match acc with Some _ -> acc | None -> search dvg dt pdt b)
        None (Manager.reachable f)
    in
    match candidate with
    | None -> continue_ := false
    | Some c -> (
        (match config.obs with
        | None -> ()
        | Some tr ->
            Darm_obs.Trace.instant tr ~cat:"pass"
              ~args:
                [
                  ("region", Darm_obs.Trace.Str c.c_region.Region.r_entry.bname);
                  ("st", Darm_obs.Trace.Str c.c_st.Region.sg_entry.bname);
                  ("sf", Darm_obs.Trace.Str c.c_sf.Region.sg_entry.bname);
                  ("fp_s", Darm_obs.Trace.Float c.c_profit);
                ]
              "meld.apply");
        let before =
          match !last_report with
          | Some _ as r -> r
          | None when checked ->
              Some (Darm_checks.Checker.check_func f)
          | None -> None
        in
        let record = record_of_candidate c (stats.melds_applied + 1) in
        obs_span "pass.apply" [] (fun () ->
            apply_candidate config f c stats);
        (* most-recent-first while running; reversed into application
           order before [run] returns *)
        stats.melds <- record :: stats.melds;
        obs_span "pass.cleanup" [] (fun () ->
            ignore (Darm_transforms.Simplify_cfg.run f);
            ignore (Darm_transforms.Dce.run f));
        match before with
        | None -> ()
        | Some before -> (
            let after = Darm_checks.Checker.check_func f in
            (* the checker verifies first and reports IR the verifier
               rejects as invalid-ir errors; that raises, as a plain
               verification would *)
            if List.exists is_invalid_ir after.Darm_checks.Checker.diags then
              Darm_ir.Verify.run_exn f;
            last_report := Some after;
            match Darm_checks.Checker.new_errors ~before ~after with
            | [] -> ()
            | news ->
                (match config.obs with
                | None -> ()
                | Some tr ->
                    Darm_obs.Trace.instant tr ~cat:"pass"
                      ~args:
                        [
                          ("region",
                           Darm_obs.Trace.Str
                             c.c_region.Region.r_entry.bname);
                          ("new_errors",
                           Darm_obs.Trace.Int (List.length news));
                        ]
                      "meld.validation_failed");
                raise
                  (Validation_failed
                     (Printf.sprintf
                        "meld of region %s in @%s introduced new checker \
                         errors:\n%s"
                        c.c_region.Region.r_entry.bname f.fname
                        (String.concat "\n"
                           (List.map Darm_checks.Diag.to_string news))))))
  done;
  if config.if_convert_after then begin
    ignore (Darm_transforms.Simplify_cfg.if_convert f);
    ignore (Darm_transforms.Dce.run f)
  end;
  stats.analysis_recomputes_avoided <- Manager.recomputes_avoided f - reuses0;
  stats.melds <- List.rev stats.melds;
  stats

(** Export the run counters as [darm_pass_*] metric families (see
    doc/observability.md). *)
let fill_metrics (reg : Darm_obs.Metrics_registry.t)
    ?(labels : (string * string) list = []) (s : stats) : unit =
  let module MR = Darm_obs.Metrics_registry in
  let count name help v =
    MR.inc reg ~labels ~by:(float_of_int v) name;
    MR.help reg name help
  in
  count "darm_pass_iterations_total" "Algorithm 1 fixpoint iterations"
    s.iterations;
  count "darm_pass_melds_applied_total" "Subgraph melds applied"
    s.melds_applied;
  count "darm_pass_pairs_scored_total"
    "Subgraph pairs through full isomorphism matching + FP_S scoring"
    s.pairs_scored;
  count "darm_pass_candidates_prefiltered_total"
    "Pair evaluations skipped by the similarity prefilter"
    s.candidates_prefiltered;
  count "darm_pass_regions_reused_total"
    "Divergent branches whose region search was skipped: an earlier \
     search found no candidate and none of its blocks changed since"
    s.regions_reused;
  count "darm_pass_analysis_recomputes_avoided_total"
    "Analysis queries served from the manager cache instead of recomputed"
    s.analysis_recomputes_avoided

