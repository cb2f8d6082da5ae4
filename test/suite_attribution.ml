(* Metrics registry, divergence attribution and the bench-history
   regression sentinel: deterministic snapshots, the exact-sum
   attribution identity on every registry kernel, byte-identity across
   pool sizes, degenerate inputs (empty registry, zero-divergence
   kernel, single-sample histogram), and the sentinel's firing
   conditions. *)

module MR = Darm_obs.Metrics_registry
module J = Darm_obs.Json
module M = Darm_sim.Metrics
module Pass = Darm_core.Pass
module E = Darm_harness.Experiment
module Report = Darm_harness.Report
module History = Darm_harness.History
module Registry = Darm_kernels.Registry
module Kernel = Darm_kernels.Kernel

let kernel tag =
  match Registry.find tag with
  | Some k -> k
  | None -> Alcotest.failf "kernel %s not registered" tag

let contains (hay : string) (needle : string) : bool =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_registry_counter_basic () =
  let r = MR.create () in
  MR.inc r "requests_total";
  MR.inc r ~by:2.5 "requests_total";
  MR.inc r ~labels:[ ("kernel", "BIT") ] "requests_total";
  Alcotest.(check (option (float 0.))) "unlabelled" (Some 3.5)
    (MR.find r "requests_total");
  Alcotest.(check (option (float 0.))) "labelled" (Some 1.)
    (MR.find r ~labels:[ ("kernel", "BIT") ] "requests_total");
  Alcotest.(check int) "two series" 2 (MR.cardinality r)

let test_registry_label_normalization () =
  let r = MR.create () in
  (* order and duplicates normalize away: one series, not three *)
  MR.inc r ~labels:[ ("a", "1"); ("b", "2") ] "m";
  MR.inc r ~labels:[ ("b", "2"); ("a", "1") ] "m";
  MR.inc r ~labels:[ ("a", "0"); ("b", "2"); ("a", "1") ] "m";
  Alcotest.(check int) "one series" 1 (MR.cardinality r);
  Alcotest.(check (option (float 0.))) "all three landed" (Some 3.)
    (MR.find r ~labels:[ ("a", "1"); ("b", "2") ] "m")

let test_registry_kind_conflict () =
  let r = MR.create () in
  MR.inc r "mixed";
  (match MR.set r "mixed" 1. with
  | () -> Alcotest.fail "gauge write to a counter name must raise"
  | exception Invalid_argument _ -> ());
  match MR.observe r "mixed" 1. with
  | () -> Alcotest.fail "histogram write to a counter name must raise"
  | exception Invalid_argument _ -> ()

let test_registry_negative_inc () =
  let r = MR.create () in
  match MR.inc r ~by:(-1.) "down" with
  | () -> Alcotest.fail "negative counter increment must raise"
  | exception Invalid_argument _ -> ()

(* degenerate: an empty registry snapshots to nothing, and both
   expositions stay well-formed *)
let test_registry_empty_snapshot () =
  let r = MR.create () in
  let snap = MR.snapshot r in
  Alcotest.(check int) "no families" 0 (List.length snap);
  Alcotest.(check string) "empty prometheus" "" (MR.to_prometheus snap);
  match MR.to_json snap with
  | J.Obj fields ->
      Alcotest.(check bool) "schema present" true
        (List.assoc_opt "schema" fields = Some (J.Str "darm-metrics-v1"));
      Alcotest.(check bool) "families empty" true
        (List.assoc_opt "families" fields = Some (J.List []))
  | _ -> Alcotest.fail "to_json must yield an object"

(* degenerate: one observation still produces coherent cumulative
   buckets, sum and count *)
let test_registry_single_sample_histogram () =
  let r = MR.create () in
  MR.observe r ~buckets:[ 10.; 20. ] "lat" 15.;
  match MR.snapshot r with
  | [ { MR.f_kind = MR.Histogram; f_series = [ s ]; _ } ] ->
      Alcotest.(check int) "count" 1 s.MR.s_count;
      Alcotest.(check (float 0.)) "sum" 15. s.MR.s_value;
      Alcotest.(check bool) "cumulative buckets" true
        (s.MR.s_buckets = [ (10., 0); (20., 1); (infinity, 1) ])
  | _ -> Alcotest.fail "expected one histogram family with one series"

let test_registry_deterministic () =
  let fill order =
    let r = MR.create () in
    List.iter
      (fun i ->
        match i with
        | 0 -> MR.inc r ~labels:[ ("k", "a") ] "zz_counter"
        | 1 -> MR.set r "aa_gauge" 4.25
        | 2 -> MR.observe r ~buckets:[ 1.; 2. ] "mm_hist" 1.5
        | _ -> MR.inc r ~labels:[ ("k", "b") ] "zz_counter")
      order;
    MR.help r "zz_counter" "a counter";
    r
  in
  let a = fill [ 0; 1; 2; 3 ] and b = fill [ 3; 2; 1; 0 ] in
  Alcotest.(check string) "prometheus bytes identical"
    (MR.to_prometheus (MR.snapshot a))
    (MR.to_prometheus (MR.snapshot b));
  Alcotest.(check string) "json bytes identical"
    (J.to_string (MR.to_json (MR.snapshot a)))
    (J.to_string (MR.to_json (MR.snapshot b)))

let test_registry_prometheus_format () =
  let r = MR.create () in
  MR.inc r ~labels:[ ("kernel", "BIT") ] "sim_cycles_total";
  MR.help r "sim_cycles_total" "total issue cycles";
  MR.observe r ~buckets:[ 5. ] "block_cycles" 3.;
  let doc = MR.to_prometheus (MR.snapshot r) in
  let has s =
    Alcotest.(check bool) (Printf.sprintf "contains %S" s) true
      (contains doc s)
  in
  has "# HELP sim_cycles_total total issue cycles";
  has "# TYPE sim_cycles_total counter";
  has "sim_cycles_total{kernel=\"BIT\"} 1";
  has "# TYPE block_cycles histogram";
  has "block_cycles_bucket{le=\"+Inf\"} 1";
  has "block_cycles_sum 3";
  has "block_cycles_count 1"

(* ------------------------------------------------------------------ *)
(* Simulator attribution invariants *)

let test_sim_branch_attribution_consistent () =
  let r = E.run (kernel "BIT") ~block_size:64 ~n:256 in
  let stats = M.branch_stats r.E.base in
  Alcotest.(check bool) "baseline diverges" true (stats <> []);
  let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 stats in
  Alcotest.(check int) "per-branch splits sum to the aggregate"
    r.E.base.M.divergent_branches
    (sum (fun s -> s.M.br_divergences));
  Alcotest.(check bool) "divergent cycles bounded by total" true
    (sum (fun s -> s.M.br_cycles) <= r.E.base.M.cycles);
  Alcotest.(check bool) "reconvergences bounded by aggregate" true
    (sum (fun s -> s.M.br_reconvergences) <= r.E.base.M.reconvergences)

let test_metrics_add_merges_branches () =
  let a = M.create () and b = M.create () in
  let sa = M.touch_branch a "br" in
  sa.M.br_divergences <- 2;
  sa.M.br_cycles <- 10;
  let sb = M.touch_branch b "br" in
  sb.M.br_divergences <- 3;
  sb.M.br_cycles <- 5;
  let s2 = M.touch_branch b "other" in
  s2.M.br_lost_lane_cycles <- 7;
  M.add a b;
  match M.branch_stats a with
  | [ ("br", s); ("other", o) ] ->
      Alcotest.(check int) "divergences merged" 5 s.M.br_divergences;
      Alcotest.(check int) "cycles merged" 15 s.M.br_cycles;
      Alcotest.(check int) "new branch carried over" 7 o.M.br_lost_lane_cycles
  | l -> Alcotest.failf "unexpected branch set (%d entries)" (List.length l)

(* ------------------------------------------------------------------ *)
(* Pass provenance *)

let test_pass_provenance () =
  let k = kernel "BIT" in
  let inst = k.Kernel.make ~seed:1 ~block_size:64 ~n:256 in
  let stats = Pass.run inst.Kernel.func in
  Alcotest.(check int) "one record per applied meld"
    stats.Pass.melds_applied
    (List.length stats.Pass.melds);
  List.iteri
    (fun i (m : Pass.meld_record) ->
      Alcotest.(check int) "indices consecutive" (i + 1) m.Pass.m_index;
      Alcotest.(check bool) "region is a subsumed branch" true
        (List.mem m.Pass.m_region m.Pass.m_branches);
      Alcotest.(check bool) "profitability above threshold" true
        (m.Pass.m_fp_s > Pass.default_config.Pass.threshold);
      Alcotest.(check bool) "branches sorted and unique" true
        (m.Pass.m_branches = List.sort_uniq String.compare m.Pass.m_branches))
    stats.Pass.melds

(* ------------------------------------------------------------------ *)
(* Attribution report *)

(* the acceptance identity: on every registry kernel the per-meld rows
   plus the residual sum exactly to the total base-vs-opt cycle delta *)
let test_report_identity_all_kernels () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      let r = Report.compute ~n k ~block_size in
      Alcotest.(check bool) (k.Kernel.tag ^ " correct") true r.Report.rp_correct;
      let attributed =
        List.fold_left
          (fun a row -> a + Report.meld_saved row)
          0 r.Report.rp_melds
      in
      Alcotest.(check int)
        (k.Kernel.tag ^ " attribution identity")
        (Report.delta r)
        (attributed + Report.residual r);
      Alcotest.(check int)
        (k.Kernel.tag ^ " one row per meld")
        r.Report.rp_rewrites
        (List.length r.Report.rp_melds);
      (* a claimed branch id never appears in two meld rows *)
      let claimed = List.concat_map (fun m -> m.Report.mr_claimed) r.Report.rp_melds in
      Alcotest.(check int)
        (k.Kernel.tag ^ " claims disjoint")
        (List.length claimed)
        (List.length (List.sort_uniq String.compare claimed)))
    Registry.all

let test_report_byte_identical_across_jobs () =
  let points =
    List.map (fun k -> (k, List.hd k.Kernel.block_sizes)) Registry.all
  in
  let render jobs =
    let rs = Report.compute_many ~jobs ~n:256 points in
    ( String.concat "\n" (List.map Report.to_text rs),
      J.to_string (Report.many_to_json rs),
      String.concat "\n" (List.map Report.to_markdown rs) )
  in
  let t1, j1, m1 = render 1 in
  let t2, j2, m2 = render 2 in
  let t4, j4, m4 = render 4 in
  Alcotest.(check string) "text jobs 1 = 2" t1 t2;
  Alcotest.(check string) "text jobs 1 = 4" t1 t4;
  Alcotest.(check string) "json jobs 1 = 2" j1 j2;
  Alcotest.(check string) "json jobs 1 = 4" j1 j4;
  Alcotest.(check string) "markdown jobs 1 = 2" m1 m2;
  Alcotest.(check string) "markdown jobs 1 = 4" m1 m4

(* degenerate: a kernel with no divergence and no melds must say so,
   with no division anywhere (including a zero-cycle opt run) *)
let test_report_zero_divergence () =
  let base = M.create () and opt = M.create () in
  base.M.cycles <- 100;
  opt.M.cycles <- 100;
  let r =
    Report.build ~kernel:"UNIFORM" ~block_size:32 ~seed:1 ~n:64 ~correct:true
      ~rewrites:0 ~base ~opt ~melds:[] ()
  in
  Alcotest.(check bool) "no_divergence" true (Report.no_divergence r);
  Alcotest.(check int) "delta zero" 0 (Report.delta r);
  Alcotest.(check int) "residual zero" 0 (Report.residual r);
  let text = Report.to_text r in
  Alcotest.(check bool) "text says no divergence" true
    (contains text "no divergence");
  (match J.member "no_divergence" (Report.to_json r) with
  | Some (J.Bool true) -> ()
  | _ -> Alcotest.fail "json must flag no_divergence");
  (* zero-cycle opt run: renderers must not divide *)
  let opt0 = M.create () in
  let r0 =
    Report.build ~kernel:"DEAD" ~block_size:32 ~seed:1 ~n:64 ~correct:false
      ~rewrites:0 ~base ~opt:opt0 ~melds:[] ()
  in
  let t0 = Report.to_text r0 in
  Alcotest.(check bool) "zero-cycle speedup prints n/a" true
    (contains t0 "n/a")

let test_report_metrics_export () =
  let r = Report.compute ~n:256 (kernel "BIT") ~block_size:64 in
  let reg = MR.create () in
  Report.fill_metrics reg r;
  Alcotest.(check (option (float 0.))) "base cycles exported"
    (Some (float_of_int r.Report.rp_base.M.cycles))
    (MR.find reg ~labels:[ ("kernel", "BIT"); ("run", "base") ]
       "sim_cycles_total");
  let doc = MR.to_prometheus (MR.snapshot reg) in
  Alcotest.(check bool) "per-branch series present" true
    (contains doc "sim_branch_divergences_total{")

(* ------------------------------------------------------------------ *)
(* Bench history + regression sentinel *)

let entry ?(correct = true) ?(pass_ms = 1.) k bs base opt =
  {
    History.e_kernel = k;
    e_block_size = bs;
    e_transform = "DARM";
    e_mem_model = "flat";
    e_reconvergence = "stack";
    e_rewrites = 1;
    e_base_cycles = base;
    e_opt_cycles = opt;
    e_alu_util_base = Some 50.;
    e_alu_util_opt = Some 87.5;
    e_divergent_branches_base = Some 64;
    e_divergent_branches_opt = Some 0;
    e_pass_ms = pass_ms;
    e_correct = correct;
  }

let record entries =
  {
    History.r_time = 1722800000.;
    r_env = History.current_env ~jobs:1 ();
    r_wall_s = Some 1.5;
    r_entries = entries;
    r_batch = None;
  }

let counter_columns =
  [ "alu_util_base"; "alu_util_opt"; "divergent_branches_base";
    "divergent_branches_opt" ]

let test_history_json_round_trip () =
  let r = record [ entry "BIT" 64 2000 1000; entry "MS" 64 500 400 ] in
  let j = History.record_to_json r in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " written") true
        (contains (J.to_string j) (Printf.sprintf "\"%s\":" k)))
    counter_columns;
  (match History.record_of_json j with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok r' ->
      Alcotest.(check bool) "entries survive" true
        (r'.History.r_entries = r.History.r_entries);
      Alcotest.(check bool) "env survives" true
        (r'.History.r_env = r.History.r_env);
      Alcotest.(check bool) "wall_s survives" true
        (r'.History.r_wall_s = r.History.r_wall_s));
  (* a line written before the counter columns existed still loads *)
  let strip = function
    | J.Obj fields ->
        J.Obj
          (List.filter (fun (k, _) -> not (List.mem k counter_columns)) fields)
    | e -> e
  in
  let older =
    match j with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "results", J.List es -> ("results", J.List (List.map strip es))
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "record_to_json must yield an object"
  in
  match History.record_of_json older with
  | Error e -> Alcotest.failf "a line without the columns must load: %s" e
  | Ok r' ->
      let without (e : History.entry) =
        { e with
          History.e_alu_util_base = None;
          e_alu_util_opt = None;
          e_divergent_branches_base = None;
          e_divergent_branches_opt = None }
      in
      Alcotest.(check bool) "columns absent, the rest intact" true
        (r'.History.r_entries = List.map without r.History.r_entries)

let test_history_rejects_wrong_schema () =
  let j =
    match History.record_to_json (record [ entry "BIT" 64 2 1 ]) with
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               if k = "schema" then (k, J.Str "darm-bogus-v9") else (k, v))
             fields)
    | _ -> Alcotest.fail "record_to_json must yield an object"
  in
  match History.record_of_json j with
  | Ok _ -> Alcotest.fail "wrong schema must be rejected"
  | Error _ -> ()

let test_history_file_round_trip () =
  let path = Filename.temp_file "darm_hist_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let a = record [ entry "BIT" 64 2000 1000 ] in
      let b = record [ entry "BIT" 64 2000 990 ] in
      History.append ~path a;
      History.append ~path b;
      match History.load ~path () with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok [ a'; b' ] ->
          Alcotest.(check bool) "first record" true
            (a'.History.r_entries = a.History.r_entries);
          Alcotest.(check bool) "second record" true
            (b'.History.r_entries = b.History.r_entries)
      | Ok l -> Alcotest.failf "expected 2 records, got %d" (List.length l))

let test_history_load_missing_or_directory () =
  let dir = Filename.get_temp_dir_name () in
  let absent = Filename.concat dir "darm_hist_absent.jsonl" in
  (match History.load ~path:absent () with
  | Ok _ -> Alcotest.fail "a missing history must not load"
  | Error e ->
      Alcotest.(check bool) "missing file reported" true
        (contains e (absent ^ ": no such file")));
  match History.load ~path:dir () with
  | Ok _ -> Alcotest.fail "a directory must not load as a history"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names the directory" e)
        true
        (contains e (dir ^ ": is a directory"))

let test_sentinel_identical_ok () =
  let r = record [ entry "BIT" 64 2000 1000; entry "MS" 64 500 400 ] in
  let d = History.diff ~baseline:r r in
  Alcotest.(check bool) "no regression on identical runs" true
    (History.diff_ok d);
  Alcotest.(check int) "both points compared" 2 d.History.d_compared

let test_sentinel_fires_on_inflation () =
  let base = record [ entry "BIT" 64 2000 1000; entry "MS" 64 500 400 ] in
  let cand = record [ entry "BIT" 64 2000 10000; entry "MS" 64 500 4000 ] in
  let d = History.diff ~baseline:base cand in
  Alcotest.(check bool) "regression detected" false (History.diff_ok d);
  (* both the per-point cycle gates and the geomean gate must fire *)
  Alcotest.(check bool) "at least 3 findings" true
    (List.length d.History.d_regressions >= 3)

let test_sentinel_tolerates_noise () =
  let base = record [ entry "BIT" 64 2000 1000 ] in
  (* +1% opt cycles: inside the default 2% threshold *)
  let cand = record [ entry "BIT" 64 2000 1010 ] in
  Alcotest.(check bool) "1% growth tolerated" true
    (History.diff_ok (History.diff ~baseline:base cand))

let test_sentinel_correctness_flip () =
  let base = record [ entry "BIT" 64 2000 1000 ] in
  let cand = record [ entry ~correct:false "BIT" 64 2000 1000 ] in
  Alcotest.(check bool) "flip is a regression" false
    (History.diff_ok (History.diff ~baseline:base cand))

let test_sentinel_pass_ms () =
  let base = record [ entry ~pass_ms:10. "BIT" 64 2000 1000 ] in
  let slow = record [ entry ~pass_ms:250. "BIT" 64 2000 1000 ] in
  (* 250 > 10 * 10 + 100 fires; 150 <= 200 does not *)
  Alcotest.(check bool) "compile-time blowup fires" false
    (History.diff_ok (History.diff ~baseline:base slow));
  let ok = record [ entry ~pass_ms:150. "BIT" 64 2000 1000 ] in
  Alcotest.(check bool) "wall-clock noise tolerated" true
    (History.diff_ok (History.diff ~baseline:base ok))

let test_sentinel_zero_cycles () =
  let base = record [ entry "BIT" 64 2000 1000 ] in
  let cand = record [ entry "BIT" 64 2000 0 ] in
  Alcotest.(check bool) "zero-cycle run is a regression" false
    (History.diff_ok (History.diff ~baseline:base cand))

let test_sentinel_disjoint_records () =
  let base = record [ entry "BIT" 64 2000 1000 ] in
  let cand = record [ entry "MS" 64 500 400 ] in
  let d = History.diff ~baseline:base cand in
  Alcotest.(check bool) "nothing comparable is a regression" false
    (History.diff_ok d);
  Alcotest.(check int) "no points compared" 0 d.History.d_compared

let test_history_of_results () =
  let r = E.run (kernel "BIT") ~block_size:64 ~n:256 in
  let rec_ = History.of_results ~jobs:1 ~time:0. [ r ] in
  match rec_.History.r_entries with
  | [ e ] ->
      Alcotest.(check string) "kernel" "BIT" e.History.e_kernel;
      Alcotest.(check int) "base cycles" r.E.base.M.cycles
        e.History.e_base_cycles;
      Alcotest.(check int) "opt cycles" r.E.opt.M.cycles
        e.History.e_opt_cycles;
      Alcotest.(check (float 0.001)) "speedup recomputed" (E.speedup r)
        (History.entry_speedup e);
      Alcotest.(check (option (float 1e-12))) "alu_util_opt"
        (Some (M.alu_utilization r.E.opt ~warp_size:64))
        e.History.e_alu_util_opt;
      Alcotest.(check (option int)) "divergent_branches_base"
        (Some r.E.base.M.divergent_branches)
        e.History.e_divergent_branches_base
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

(* an entry's ALU utilization is taken at the warp its result ran at,
   not the default config's *)
let test_history_alu_util_at_result_warp () =
  let warp32 = { E.sim_config with Darm_sim.Simulator.warp_size = 32 } in
  let r = E.run ~sim:warp32 (kernel "BIT") ~block_size:64 ~n:256 in
  match (History.of_results ~time:0. [ r ]).History.r_entries with
  | [ e ] ->
      Alcotest.(check (option (float 1e-12))) "alu_util_base at warp 32"
        (Some (M.alu_utilization r.E.base ~warp_size:32))
        e.History.e_alu_util_base;
      Alcotest.(check (option (float 1e-12))) "alu_util_opt at warp 32"
        (Some (M.alu_utilization r.E.opt ~warp_size:32))
        e.History.e_alu_util_opt
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

(* a record mixing machine models names each entry's models from its
   result and the env's coverage from all of them *)
let test_history_models_from_results () =
  let module Sim = Darm_sim.Simulator in
  let k = kernel "BIT" in
  let flat = E.run k ~block_size:64 ~n:256 in
  let hier =
    E.run ~mem_model:(Sim.Hier Sim.default_hier_params) k ~block_size:64
      ~n:256
  in
  let its =
    E.run ~reconvergence:(Sim.Its Sim.default_its_params) k ~block_size:64
      ~n:256
  in
  let r = History.of_results ~jobs:1 ~time:0. [ flat; hier; its ] in
  Alcotest.(check (list (pair string string))) "per-entry models"
    [ ("flat", "stack"); ("hier", "stack"); ("flat", "its") ]
    (List.map
       (fun e -> (e.History.e_mem_model, e.History.e_reconvergence))
       r.History.r_entries);
  Alcotest.(check string) "env mem_model" "flat+hier"
    r.History.r_env.History.mem_model;
  Alcotest.(check string) "env reconvergence" "stack+its"
    r.History.r_env.History.reconvergence;
  let only_flat = History.of_results ~jobs:1 ~time:0. [ flat ] in
  Alcotest.(check (pair string string)) "single-model env"
    ("flat", "stack")
    ( only_flat.History.r_env.History.mem_model,
      only_flat.History.r_env.History.reconvergence )

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "metrics-registry",
      [
        Alcotest.test_case "counter: inc + labels" `Quick
          test_registry_counter_basic;
        Alcotest.test_case "labels: normalization" `Quick
          test_registry_label_normalization;
        Alcotest.test_case "kind conflict raises" `Quick
          test_registry_kind_conflict;
        Alcotest.test_case "negative inc raises" `Quick
          test_registry_negative_inc;
        Alcotest.test_case "empty registry snapshot" `Quick
          test_registry_empty_snapshot;
        Alcotest.test_case "single-sample histogram" `Quick
          test_registry_single_sample_histogram;
        Alcotest.test_case "snapshot deterministic across orders" `Quick
          test_registry_deterministic;
        Alcotest.test_case "prometheus exposition format" `Quick
          test_registry_prometheus_format;
      ] );
    ( "attribution",
      [
        Alcotest.test_case "sim: per-branch counters consistent" `Quick
          test_sim_branch_attribution_consistent;
        Alcotest.test_case "metrics: add merges branch stats" `Quick
          test_metrics_add_merges_branches;
        Alcotest.test_case "pass: meld provenance records" `Quick
          test_pass_provenance;
        Alcotest.test_case "report: exact-sum identity on all kernels" `Slow
          test_report_identity_all_kernels;
        Alcotest.test_case "report: byte-identical across jobs" `Slow
          test_report_byte_identical_across_jobs;
        Alcotest.test_case "report: zero-divergence degenerate" `Quick
          test_report_zero_divergence;
        Alcotest.test_case "report: metrics export" `Quick
          test_report_metrics_export;
      ] );
    ( "bench-history",
      [
        Alcotest.test_case "record: json round-trip" `Quick
          test_history_json_round_trip;
        Alcotest.test_case "record: wrong schema rejected" `Quick
          test_history_rejects_wrong_schema;
        Alcotest.test_case "file: append + load round-trip" `Quick
          test_history_file_round_trip;
        Alcotest.test_case "sentinel: identical runs pass" `Quick
          test_sentinel_identical_ok;
        Alcotest.test_case "sentinel: fires on 10x inflation" `Quick
          test_sentinel_fires_on_inflation;
        Alcotest.test_case "sentinel: tolerates 1% noise" `Quick
          test_sentinel_tolerates_noise;
        Alcotest.test_case "sentinel: correctness flip" `Quick
          test_sentinel_correctness_flip;
        Alcotest.test_case "sentinel: pass_ms thresholds" `Quick
          test_sentinel_pass_ms;
        Alcotest.test_case "sentinel: zero-cycle candidate" `Quick
          test_sentinel_zero_cycles;
        Alcotest.test_case "sentinel: disjoint records" `Quick
          test_sentinel_disjoint_records;
        Alcotest.test_case "history: built from experiment results" `Quick
          test_history_of_results;
        Alcotest.test_case "history: ALU utilization at the result's warp"
          `Quick test_history_alu_util_at_result_warp;
        Alcotest.test_case "history: models named from the results" `Quick
          test_history_models_from_results;
        Alcotest.test_case "file: missing or directory history" `Quick
          test_history_load_missing_or_directory;
      ] );
  ]
