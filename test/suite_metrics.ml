(* Metrics unit tests: the totals summed from the per-branch and
   per-site records, the makespan estimator's documented edge cases, and
   the zero-denominator guards of the derived ratios. *)

module Metrics = Darm_sim.Metrics

let with_blocks ?(cycles = 0) blocks =
  let m = Metrics.create () in
  m.Metrics.cycles <- cycles;
  m.Metrics.block_cycles <- blocks;
  m

(* ------------------------------------------------------------------ *)
(* sum_records: each total is the sum of one record field *)

let branch d c l r =
  { Metrics.br_divergences = d; br_cycles = c; br_lost_lane_cycles = l;
    br_reconvergences = r }

let site k =
  (* field [i] of site [k] holds [k * 10 + i], so every sum is distinct *)
  let f i = (k * 10) + i in
  { Metrics.ms_issues = f 0; ms_accesses = f 1; ms_transactions = f 2;
    ms_l1_hits = f 3; ms_l1_misses = f 4; ms_bank_conflicts = f 5;
    ms_bank_conflict_cycles = f 6; ms_stall_cycles = f 7; ms_cycles = f 8 }

let test_sum_records_branches () =
  let m = Metrics.create () in
  Hashtbl.replace m.Metrics.branches "a" (branch 1 10 100 2);
  Hashtbl.replace m.Metrics.branches "b" (branch 3 30 300 6);
  (* a stale total is overwritten, not added to *)
  m.Metrics.divergent_branches <- 99;
  Metrics.sum_records m;
  Alcotest.(check int) "divergent_branches" 4 m.Metrics.divergent_branches;
  Alcotest.(check int) "lost_lane_cycles" 400 m.Metrics.lost_lane_cycles;
  Alcotest.(check int) "reconvergences" 8 m.Metrics.reconvergences;
  Alcotest.(check int) "no site: mem_cycles" 0 m.Metrics.mem_cycles

let test_sum_records_sites () =
  let m = Metrics.create () in
  Hashtbl.replace m.Metrics.mem_sites "bb#0" (site 1);
  Hashtbl.replace m.Metrics.mem_sites "bb#1" (site 2);
  m.Metrics.l1_hits <- 99;
  Metrics.sum_records m;
  (* field [i] sums to (10 + i) + (20 + i) = 30 + 2i *)
  let sum i = 30 + (2 * i) in
  List.iter
    (fun (name, i, got) -> Alcotest.(check int) name (sum i) got)
    [
      ("global_accesses", 1, m.Metrics.global_accesses);
      ("global_transactions", 2, m.Metrics.global_transactions);
      ("l1_hits", 3, m.Metrics.l1_hits);
      ("l1_misses", 4, m.Metrics.l1_misses);
      ("bank_conflicts", 5, m.Metrics.bank_conflicts);
      ("bank_conflict_cycles", 6, m.Metrics.bank_conflict_cycles);
      ("mem_stall_cycles", 7, m.Metrics.mem_stall_cycles);
      ("mem_cycles", 8, m.Metrics.mem_cycles);
    ];
  Alcotest.(check int) "no branch: divergent_branches" 0
    m.Metrics.divergent_branches

(* ------------------------------------------------------------------ *)
(* makespan *)

let test_makespan_one_cu_is_cycles () =
  let m = with_blocks ~cycles:123 [ 60; 63 ] in
  Alcotest.(check int) "1 CU" 123 (Metrics.makespan m ~num_cus:1)

let test_makespan_more_cus_than_blocks () =
  let m = with_blocks ~cycles:15 [ 4; 5; 6 ] in
  Alcotest.(check int) "longest block" 6 (Metrics.makespan m ~num_cus:8)

let test_makespan_empty () =
  let m = with_blocks ~cycles:0 [] in
  Alcotest.(check int) "no blocks" 0 (Metrics.makespan m ~num_cus:4)

let test_makespan_lpt_schedule () =
  (* LPT on 2 CUs over [4;3;3;2]: {4,2} vs {3,3} -> 6 *)
  let m = with_blocks ~cycles:12 [ 3; 2; 4; 3 ] in
  Alcotest.(check int) "2 CUs" 6 (Metrics.makespan m ~num_cus:2)

let test_makespan_order_insensitive () =
  let a = with_blocks ~cycles:12 [ 4; 3; 3; 2 ] in
  let b = with_blocks ~cycles:12 [ 2; 3; 3; 4 ] in
  List.iter
    (fun num_cus ->
      Alcotest.(check int)
        (Printf.sprintf "%d CUs" num_cus)
        (Metrics.makespan a ~num_cus)
        (Metrics.makespan b ~num_cus))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* zero-denominator guards *)

let test_transactions_per_access_zero () =
  Alcotest.(check (float 0.)) "no accesses" 0.
    (Metrics.transactions_per_access (Metrics.create ()))

let test_transactions_per_access_ratio () =
  let m = Metrics.create () in
  m.Metrics.global_accesses <- 4;
  m.Metrics.global_transactions <- 10;
  Alcotest.(check (float 1e-9)) "ratio" 2.5 (Metrics.transactions_per_access m)

let test_alu_utilization_zero () =
  Alcotest.(check (float 0.)) "no ALU issues" 0.
    (Metrics.alu_utilization (Metrics.create ()) ~warp_size:64)

let test_alu_utilization_ratio () =
  let m = Metrics.create () in
  m.Metrics.alu_issues <- 10;
  m.Metrics.alu_active_lanes <- 320;
  Alcotest.(check (float 1e-9)) "percent" 50.
    (Metrics.alu_utilization m ~warp_size:64)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "sum_records: branch totals" `Quick
          test_sum_records_branches;
        Alcotest.test_case "sum_records: site totals" `Quick
          test_sum_records_sites;
        Alcotest.test_case "makespan: 1 CU = cycles" `Quick
          test_makespan_one_cu_is_cycles;
        Alcotest.test_case "makespan: more CUs than blocks" `Quick
          test_makespan_more_cus_than_blocks;
        Alcotest.test_case "makespan: empty" `Quick test_makespan_empty;
        Alcotest.test_case "makespan: LPT schedule" `Quick
          test_makespan_lpt_schedule;
        Alcotest.test_case "makespan: order-insensitive" `Quick
          test_makespan_order_insensitive;
        Alcotest.test_case "txn/access: zero accesses" `Quick
          test_transactions_per_access_zero;
        Alcotest.test_case "txn/access: ratio" `Quick
          test_transactions_per_access_ratio;
        Alcotest.test_case "alu_util: zero issues" `Quick
          test_alu_utilization_zero;
        Alcotest.test_case "alu_util: ratio" `Quick
          test_alu_utilization_ratio;
      ] );
  ]
