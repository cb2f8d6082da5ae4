(* The domain pool must be invisible in the results: same values, same
   order, same CSV bytes for any job count, and deterministic error
   selection.  Also pins the Experiment.speedup zero-cycle guard. *)

module PS = Darm_harness.Parallel_sweep
module E = Darm_harness.Experiment
module Csv = Darm_harness.Csv_export
module Metrics = Darm_sim.Metrics

let test_map_preserves_order () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 7 in
  let seq = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        seq
        (PS.map ~jobs f xs))
    [ 1; 2; 4; 13 ]

let test_map_more_jobs_than_tasks () =
  Alcotest.(check (list int)) "2 tasks, 8 jobs" [ 2; 4 ]
    (PS.map ~jobs:8 (fun x -> 2 * x) [ 1; 2 ])

let test_map_empty () =
  Alcotest.(check (list int)) "empty" [] (PS.map ~jobs:4 (fun x -> x) [])

let test_run_all_order () =
  let thunks = List.init 20 (fun i () -> 3 * i) in
  Alcotest.(check (list int))
    "run_all" (List.init 20 (fun i -> 3 * i))
    (PS.run_all ~jobs:4 thunks)

exception Boom of int

let test_lowest_index_error_wins () =
  List.iter
    (fun jobs ->
      match
        PS.map ~jobs
          (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
          [ 1; 3; 4; 5; 6; 8 ]
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom v ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d raises first failure" jobs)
            4 v)
    [ 1; 4 ]

let test_error_backtrace_preserved () =
  (* the pool's deferred re-raise must carry the backtrace captured at
     the failing task, not a fresh (empty) one from the plumbing; the
     recording flag is set inside the task because worker domains do
     not inherit the caller's *)
  List.iter
    (fun jobs ->
      match
        PS.map ~jobs
          (fun x ->
            Printexc.record_backtrace true;
            if x mod 2 = 0 then raise (Boom x) else x)
          [ 1; 3; 4; 5; 6; 8 ]
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom v ->
          let bt = Printexc.get_raw_backtrace () in
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d first failing task" jobs)
            4 v;
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d backtrace survives the pool" jobs)
            true
            (Printexc.raw_backtrace_length bt > 0))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)

(* a fresh transform instance bypasses the experiment result cache, so
   the two pool sizes genuinely recompute the sweep *)
let projected ~jobs =
  let kernels = [ Darm_kernels.Sb.sb1; Darm_kernels.Sb.sb3 ] in
  List.map
    (fun r ->
      ( r.E.tag,
        r.E.block_size,
        r.E.rewrites,
        r.E.base.Metrics.cycles,
        r.E.opt.Metrics.cycles,
        r.E.correct ))
    (E.sweep_many ~jobs
       ~transform:(E.pass_transform "DARM" Darm_core.Pass.default_config)
       ~n:256 kernels)

let test_sweep_many_deterministic () =
  let one = projected ~jobs:1 in
  let four = projected ~jobs:4 in
  Alcotest.(check int) "count" (List.length one) (List.length four);
  List.iter2
    (fun (tag, bs, rw, bc, oc, ok) (tag', bs', rw', bc', oc', ok') ->
      Alcotest.(check string) "tag" tag tag';
      Alcotest.(check int) "block size" bs bs';
      Alcotest.(check int) "rewrites" rw rw';
      Alcotest.(check int) "base cycles" bc bc';
      Alcotest.(check int) "opt cycles" oc oc';
      Alcotest.(check bool) "correct" ok ok')
    one four

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_csv_bytes_identical () =
  let export jobs dir =
    Csv.export ~n:256 ~jobs ~dir ();
    (read_file (Filename.concat dir "fig7.csv"),
     read_file (Filename.concat dir "fig8.csv"))
  in
  let f7a, f8a = export 1 "csv_jobs1" in
  let f7b, f8b = export 4 "csv_jobs4" in
  Alcotest.(check string) "fig7.csv bytes" f7a f7b;
  Alcotest.(check string) "fig8.csv bytes" f8a f8b;
  Alcotest.(check bool) "fig7.csv non-trivial" true
    (String.length f7a > 100 && String.split_on_char '\n' f7a |> List.length > 10)

(* ------------------------------------------------------------------ *)

let test_speedup_zero_cycles_raises () =
  let m_base = Metrics.create () in
  m_base.Metrics.cycles <- 1000;
  let m_opt = Metrics.create () in
  (* opt.cycles stays 0: the optimized kernel never executed *)
  let r =
    {
      E.tag = "FAKE";
      block_size = 64;
      n = 256;
      seed = 2022;
      transform_name = "DARM";
      rewrites = 1;
      base = m_base;
      opt = m_opt;
      correct = false;
      t_ms = 0.;
      pass_stats = None;
      machine = E.sim_config;
    }
  in
  match E.speedup r with
  | v -> Alcotest.failf "expected Invalid_argument, got %f" v
  | exception Invalid_argument _ -> ()

let test_default_jobs_env () =
  (* cannot mutate the environment portably mid-process, but the
     default must at least be a sane positive count *)
  Alcotest.(check bool) "positive" true (PS.default_jobs () >= 1)

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "map preserves order" `Quick
          test_map_preserves_order;
        Alcotest.test_case "more jobs than tasks" `Quick
          test_map_more_jobs_than_tasks;
        Alcotest.test_case "empty input" `Quick test_map_empty;
        Alcotest.test_case "run_all preserves order" `Quick
          test_run_all_order;
        Alcotest.test_case "lowest-index error wins" `Quick
          test_lowest_index_error_wins;
        Alcotest.test_case "error backtrace preserved" `Quick
          test_error_backtrace_preserved;
        Alcotest.test_case "sweep_many jobs=1 = jobs=4" `Quick
          test_sweep_many_deterministic;
        Alcotest.test_case "fig7/fig8 csv bytes jobs-independent" `Slow
          test_csv_bytes_identical;
        Alcotest.test_case "speedup raises on zero cycles" `Quick
          test_speedup_zero_cycles_raises;
        Alcotest.test_case "default_jobs is positive" `Quick
          test_default_jobs_env;
      ] );
  ]
