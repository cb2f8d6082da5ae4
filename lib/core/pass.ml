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
module Similarity = Darm_analysis.Similarity

(** How the subgraph pair to meld is chosen (paper §IV-C): [Greedy] is
    the paper's implementation (m x n profitability comparison);
    [Alignment] computes an optimal order-preserving Needleman–Wunsch
    alignment of the two subgraph sequences first (Definition 7) and
    picks the most profitable aligned pair. *)
type pairing = Greedy | Alignment

(** Translation validation: re-run the {!Darm_checks} sanity checkers
    after each meld and compare against the pre-meld report. *)
type validation =
  | Vnone  (** no validation (default) *)
  | Vfail  (** raise {!Validation_failed} on any new error diagnostic *)
  | Vreject
      (** roll back the offending meld, skip that candidate, continue *)

exception Validation_failed of string

type config = {
  latency : Latency.config;
  pairing : pairing;
  threshold : float;  (** minimum FP_S to meld; the paper uses a small
                          positive cutoff *)
  unpredicate : bool;  (** move {e all} gap runs out of line (§IV-E);
                           unsafe-to-speculate runs always move *)
  diamonds_only : bool;  (** branch-fusion compatibility mode *)
  max_iterations : int;
  run_cleanups : bool;  (** run SimplifyCFG + DCE after each meld *)
  if_convert_after : bool;
      (** re-run the predicating if-conversion after the pass, modelling
          the later -O3 pipeline (the paper's §VI-C observation) *)
  obs : Darm_obs.Trace.t option;
      (** trace buffer for pass-pipeline spans and meld-decision events
          (see doc/observability.md); [None] = no instrumentation *)
  validate : validation;
      (** translation validation of each meld against the sanity
          checkers (see doc/static-analysis.md) *)
  prefilter : bool;
      (** skip subgraph pairs whose {!Darm_analysis.Similarity}
          signatures prove the exhaustive search would reject them
          (shape mismatch or FP_S upper bound at most the threshold);
          meld decisions are unchanged.  ANDed with the
          [DARM_NO_PREFILTER] environment variable (set = off). *)
}

let default_config : config =
  {
    latency = Latency.default;
    pairing = Greedy;
    threshold = 0.1;
    unpredicate = true;
    diamonds_only = false;
    max_iterations = 64;
    run_cleanups = true;
    if_convert_after = false;
    obs = None;
    validate = Vnone;
    prefilter = true;
  }

(* [DARM_NO_PREFILTER] set (non-empty, non-"0") forces the exhaustive
   candidate search — the CI equivalence stage uses it. *)
let prefilter_enabled () =
  match Sys.getenv_opt "DARM_NO_PREFILTER" with
  | Some ("" | "0") | None -> true
  | Some _ -> false

let branch_fusion_config : config =
  { default_config with diamonds_only = true }

(* the fields that decide the printed IR, in a fixed order; the batch
   result cache keys on this string, so its bytes are part of the
   cache's key space *)
let signature (c : config) : string =
  let l = c.latency in
  Printf.sprintf
    "darm|pairing=%s|threshold=%g|unpredicate=%b|diamonds_only=%b|max_iterations=%d|run_cleanups=%b|if_convert_after=%b|validate=%s|lat=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d"
    (match c.pairing with Greedy -> "greedy" | Alignment -> "alignment")
    c.threshold c.unpredicate c.diamonds_only c.max_iterations c.run_cleanups
    c.if_convert_after
    (match c.validate with
    | Vnone -> "none"
    | Vfail -> "fail"
    | Vreject -> "reject")
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
  mutable melds_applied : int;
  mutable melds_rejected : int;
      (** melds rolled back by [Vreject] translation validation *)
  mutable pairs_scored : int;
      (** subgraph pairs that went through full isomorphism matching +
          FP_S scoring *)
  mutable candidates_prefiltered : int;
      (** subgraph pair evaluations skipped by the similarity
          prefilter *)
  mutable analysis_recomputes_avoided : int;
      (** analysis queries served from the manager cache *)
  mutable melds : meld_record list;
      (** provenance of the applied melds, in application order *)
  meld_stats : Meld.stats;
}

let empty_stats () =
  {
    iterations = 0;
    regions_found = 0;
    melds_applied = 0;
    melds_rejected = 0;
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
   renames blocks and melding merges them, so the subsumed branch ids
   are only readable from the pre-meld subgraphs. *)
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

(* profitability of a subgraph pair, when meldable *)
let pair_profit (cfg : config) (st : Region.subgraph) (sf : Region.subgraph)
    : float option =
  match Isomorphism.match_subgraphs st sf with
  | None -> None
  | Some pairs -> Some (Profitability.fp_s cfg.latency pairs)

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

(* Identifying key of a candidate, stable across snapshot/restore: the
   region entry and the two subgraph entries by name.  Used to skip
   candidates already rolled back by translation validation. *)
let candidate_key (r : Region.t) (st : Region.subgraph)
    (sf : Region.subgraph) : string * string * string =
  ( r.Region.r_entry.bname,
    st.Region.sg_entry.bname,
    sf.Region.sg_entry.bname )

(* Greedy MostProfitableSubgraphPair: m x n comparison (paper §IV-C).
   [admit] is the similarity prefilter (a pair it refuses is one the
   exhaustive search provably rejects, so the winner is unchanged);
   [score] is the counted [pair_profit]. *)
let best_pair_greedy ~skip ~admit ~score (cfg : config) (r : Region.t)
    (t_sgs : Region.subgraph list) (f_sgs : Region.subgraph list) :
    candidate option =
  let best = ref None in
  List.iteri
    (fun ti st ->
      List.iteri
        (fun fi sf ->
          if skip (candidate_key r st sf) || not (admit st sf) then ()
          else
          match score st sf with
          | None -> ()
          | Some profit ->
              obs_decision cfg r st sf profit;
              if profit > cfg.threshold then begin
                let rank = ti + fi in
                match !best with
                | Some b
                  when b.c_profit > profit
                       || (b.c_profit = profit && b.c_rank <= rank) ->
                    ()
                | _ ->
                    best :=
                      Some
                        {
                          c_region = r;
                          c_st = st;
                          c_sf = sf;
                          c_profit = profit;
                          c_rank = rank;
                        }
              end)
        f_sgs)
    t_sgs;
  !best

(* Subgraph-sequence alignment (Definition 7): an order-preserving
   Needleman-Wunsch over the two sequences, scored by FP_S; the most
   profitable aligned pair is melded this iteration (the rest re-align
   after the CFG is rebuilt). *)
let best_pair_alignment ~skip ~admit ~score (cfg : config) (r : Region.t)
    (t_sgs : Region.subgraph list) (f_sgs : Region.subgraph list) :
    candidate option =
  let cell_score st sf =
    if skip (candidate_key r st sf) || not (admit st sf) then None
    else
      match score st sf with
      | Some p when p > cfg.threshold -> Some p
      | Some _ | None -> None
  in
  let aligned, _ =
    Darm_align.Sequence.needleman_wunsch ~score:cell_score ~gap_open:0.
      ~gap_extend:0.
      (Array.of_list t_sgs) (Array.of_list f_sgs)
  in
  List.fold_left
    (fun acc item ->
      match item with
      | Darm_align.Sequence.Both (st, sf)
        when skip (candidate_key r st sf) || not (admit st sf) ->
          acc
      | Darm_align.Sequence.Both (st, sf) -> (
          match score st sf with
          | None -> acc
          | Some profit -> (
              obs_decision cfg r st sf profit;
              if profit <= cfg.threshold then acc
              else
                match acc with
                | Some b when b.c_profit >= profit -> acc
                | _ ->
                    Some
                      {
                        c_region = r;
                        c_st = st;
                        c_sf = sf;
                        c_profit = profit;
                        c_rank = 0;
                      }))
      | Darm_align.Sequence.Left _ | Darm_align.Sequence.Right _ -> acc)
    None aligned

let sg_signature (lat : Latency.config) (sg : Region.subgraph) :
    Similarity.t =
  Similarity.signature ~lat
    ~blocks:(Region.subgraph_block_list sg)
    ~entry:sg.Region.sg_entry
    ~in_subgraph:(Region.in_subgraph sg)
    ~exit_dest:sg.Region.sg_exit_dest

let best_pair ?(skip = fun _ -> false) ?(prefilter = false)
    ?(stats = empty_stats ()) (cfg : config) (r : Region.t)
    (pdt : Domtree.t) : candidate option =
  let t_sgs = Region.true_subgraphs pdt r in
  let f_sgs = Region.false_subgraphs pdt r in
  let single_block sg = Region.subgraph_size sg = 1 in
  if
    cfg.diamonds_only
    && not
         (List.length t_sgs = 1 && List.length f_sgs = 1
         && List.for_all single_block t_sgs
         && List.for_all single_block f_sgs)
  then None
  else begin
    let score st sf =
      stats.pairs_scored <- stats.pairs_scored + 1;
      pair_profit cfg st sf
    in
    let admit =
      if not prefilter then fun _ _ -> true
      else begin
        (* one signature per subgraph per search, keyed by entry bid *)
        let sigs = Hashtbl.create 16 in
        let sig_of sg =
          match Hashtbl.find_opt sigs sg.Region.sg_entry.bid with
          | Some s -> s
          | None ->
              let s = sg_signature cfg.latency sg in
              Hashtbl.replace sigs sg.Region.sg_entry.bid s;
              s
        in
        fun st sf ->
          let ok =
            Similarity.may_profit ~threshold:cfg.threshold (sig_of st)
              (sig_of sf)
          in
          if not ok then
            stats.candidates_prefiltered <-
              stats.candidates_prefiltered + 1;
          ok
      end
    in
    match cfg.pairing with
    | Greedy -> best_pair_greedy ~skip ~admit ~score cfg r t_sgs f_sgs
    | Alignment -> best_pair_alignment ~skip ~admit ~score cfg r t_sgs f_sgs
  end

(* Meld one candidate; the subgraphs are re-matched after normalization
   since normalization adds the dedicated exit blocks. *)
let apply_candidate (cfg : config) (mgr : Manager.t) (f : func)
    (c : candidate) (stats : stats) : unit =
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
    (Meld.run mgr ~cond:c.c_region.Region.r_cond ~lat:cfg.latency ~s_t:st
       ~s_f:sf ~pre_t ~pre_f ~pairs ~unpredicate:cfg.unpredicate
       ~stats:stats.meld_stats);
  stats.melds_applied <- stats.melds_applied + 1

(* Snapshot/restore for [Vreject]: the printed IR round-trips through
   the parser (a property the test suites already rely on), and the
   simulator binds parameters by index, so grafting the re-parsed
   body onto the original [func] record restores pre-meld behaviour. *)
let snapshot_func (f : func) : string = Darm_ir.Printer.func_to_string f

let restore_func (f : func) (snap : string) : unit =
  match Darm_ir.Parser.parse_func snap with
  | Error e ->
      invalid_arg ("Pass.restore_func: snapshot does not re-parse: " ^ e)
  | Ok g ->
      List.iter (remove_block f) f.blocks_list;
      List.iter
        (fun b ->
          remove_block g b;
          append_block f b)
        g.blocks_list

(** Run the melding pass on [f] to a fixpoint; returns the statistics.
    The function is verified after every meld when [verify_each] is set
    (the test suites use this). *)
let run ?(config = default_config) ?(verify_each = false) (f : func) : stats =
  let stats = empty_stats () in
  let prefilter = config.prefilter && prefilter_enabled () in
  (* one manager per run: an analysis persists across iterations until
     the function is next edited *)
  let mgr = Manager.create f in
  let obs_span name args body =
    match config.obs with
    | None -> body ()
    | Some tr -> Darm_obs.Trace.with_span tr ~cat:"pass" ~args name body
  in
  obs_span "pass.run"
    [ ("func", Darm_obs.Trace.Str f.fname) ]
  @@ fun () ->
  let continue_ = ref true in
  (* candidates rolled back by Vreject validation, by stable key; a key
     rejected twice means restore did not reproduce the pre-meld shape,
     so stop rather than loop *)
  let rejected : (string * string * string, unit) Hashtbl.t =
    Hashtbl.create 4
  in
  let skip key = Hashtbl.mem rejected key in
  while !continue_ && stats.iterations < config.max_iterations do
    stats.iterations <- stats.iterations + 1;
    obs_span "pass.iteration"
      [ ("iteration", Darm_obs.Trace.Int stats.iterations) ]
    @@ fun () ->
    let dvg, dt, pdt =
      obs_span "pass.analysis" [] @@ fun () ->
      (* divergence first: it computes a post-dominator tree internally,
         so the postdomtree query right after is a cache hit *)
      let dvg = Manager.divergence mgr in
      let dt = Manager.domtree mgr in
      let pdt = Manager.postdomtree mgr in
      (dvg, dt, pdt)
    in
    let candidate =
      obs_span "pass.candidates" [] @@ fun () ->
      List.fold_left
        (fun acc b ->
          match acc with
          | Some _ -> acc
          | None -> (
              match Region.detect dvg dt pdt b with
              | None -> None
              | Some r ->
                  stats.regions_found <- stats.regions_found + 1;
                  best_pair ~skip ~prefilter ~stats config r pdt))
        None (Manager.reachable mgr)
    in
    match candidate with
    | None -> continue_ := false
    | Some c ->
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
        let key = candidate_key c.c_region c.c_st c.c_sf in
        let pre_meld =
          if config.validate = Vnone then None
          else
            Some
              (snapshot_func f, Darm_checks.Checker.check_func ~facts:mgr f)
        in
        let record = record_of_candidate c (stats.melds_applied + 1) in
        obs_span "pass.apply" [] (fun () ->
            apply_candidate config mgr f c stats);
        (* most-recent-first while running so Vreject can pop; reversed
           into application order before [run] returns *)
        stats.melds <- record :: stats.melds;
        obs_span "pass.cleanup" [] (fun () ->
            if config.run_cleanups then begin
              ignore (Darm_transforms.Simplify_cfg.run f);
              ignore (Darm_transforms.Dce.run f)
            end);
        if verify_each then Darm_ir.Verify.run_exn f;
        (match pre_meld with
        | None -> ()
        | Some (snap, before) -> (
            let after = Darm_checks.Checker.check_func ~facts:mgr f in
            match Darm_checks.Checker.new_errors ~before ~after with
            | [] -> ()
            | news -> (
                let detail =
                  String.concat "\n"
                    (List.map Darm_checks.Diag.to_string news)
                in
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
                match config.validate with
                | Vnone -> ()
                | Vfail ->
                    raise
                      (Validation_failed
                         (Printf.sprintf
                            "meld of region %s in @%s introduced new \
                             checker errors:\n%s"
                            c.c_region.Region.r_entry.bname f.fname detail))
                | Vreject ->
                    restore_func f snap;
                    stats.melds_applied <- stats.melds_applied - 1;
                    stats.melds_rejected <- stats.melds_rejected + 1;
                    (match stats.melds with
                    | _rolled_back :: rest -> stats.melds <- rest
                    | [] -> ());
                    if Hashtbl.mem rejected key then continue_ := false
                    else Hashtbl.replace rejected key ())))
  done;
  if config.if_convert_after then begin
    ignore (Darm_transforms.Simplify_cfg.if_convert f);
    ignore (Darm_transforms.Dce.run f)
  end;
  stats.analysis_recomputes_avoided <- Manager.recomputes_avoided mgr;
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
  count "darm_pass_melds_rejected_total"
    "Melds rolled back by translation validation" s.melds_rejected;
  count "darm_pass_pairs_scored_total"
    "Subgraph pairs through full isomorphism matching + FP_S scoring"
    s.pairs_scored;
  count "darm_pass_candidates_prefiltered_total"
    "Pair evaluations skipped by the similarity prefilter"
    s.candidates_prefiltered;
  count "darm_pass_analysis_recomputes_avoided_total"
    "Analysis queries served from the manager cache instead of recomputed"
    s.analysis_recomputes_avoided

