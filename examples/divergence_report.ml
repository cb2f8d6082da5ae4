(* Divergence analysis as a standalone tool: print, for every
   benchmark kernel, which branches are divergent and how much dynamic
   divergence the simulator actually observes — static analysis vs
   dynamic truth, side by side — plus the sanity checkers' verdict
   (barrier divergence, shared-memory races, hygiene lints).

     dune exec examples/divergence_report.exe
*)

module A = Darm_analysis
module CK = Darm_checks
module K = Darm_kernels
module E = Darm_harness.Experiment
module M = Darm_sim.Metrics

(* per-branch attribution rows accumulated across kernels for the
   top-5 table: (kernel, branch id, baseline stat, post-DARM stat) *)
let branch_rows : (string * string * M.branch_stat * M.branch_stat option) list
    ref =
  ref []

let collect_branches (tag : string) (r : E.result) : unit =
  List.iter
    (fun (id, s) ->
      let after = Hashtbl.find_opt r.E.opt.M.branches id in
      branch_rows := (tag, id, s, after) :: !branch_rows)
    (M.branch_stats r.E.base)

let () =
  Printf.printf "%-8s %18s %20s %16s %12s\n" "kernel" "divergent branches"
    "dynamic warp splits" "splits after DARM" "races";
  Printf.printf "%s\n" (String.make 79 '-');
  List.iter
    (fun (kernel : K.Kernel.t) ->
      let block_size = List.hd kernel.K.Kernel.block_sizes in
      let inst =
        kernel.K.Kernel.make ~seed:1 ~block_size
          ~n:(min kernel.K.Kernel.default_n 512)
      in
      (* one manager: the checkers reuse the divergence counted here *)
      let facts = A.Manager.create inst.K.Kernel.func in
      let static_count =
        List.length
          (A.Divergence.divergent_branches (A.Manager.divergence facts)
             inst.K.Kernel.func)
      in
      let report = CK.Checker.check_func ~facts inst.K.Kernel.func in
      let r = E.run kernel ~block_size ~n:(min kernel.K.Kernel.default_n 512) in
      collect_branches kernel.K.Kernel.tag r;
      Printf.printf "%-8s %18d %20d %16d %12s\n" kernel.K.Kernel.tag
        static_count r.E.base.Darm_sim.Metrics.divergent_branches
        r.E.opt.Darm_sim.Metrics.divergent_branches
        (CK.Race_check.verdict_to_string report.CK.Checker.verdict);
      List.iter
        (fun d -> Printf.printf "         %s\n" (CK.Diag.to_string d))
        report.CK.Checker.diags)
    K.Registry.all;
  print_newline ();
  (* the five branches that waste the most SIMD capacity across all
     kernels — the static branch ids here are the join key [darm_opt
     report] uses to attribute cycles saved to individual melds *)
  print_endline
    "top-5 most-divergent branches (by baseline idle-lane cycles), before \
     -> after DARM:";
  Printf.printf "%-8s %-16s %8s %12s %14s   %s\n" "kernel" "branch" "splits"
    "div cycles" "lost-lane cyc" "after DARM";
  Printf.printf "%s\n" (String.make 79 '-');
  let top5 =
    List.sort
      (fun (ka, ia, (a : M.branch_stat), _) (kb, ib, (b : M.branch_stat), _) ->
        match compare b.M.br_lost_lane_cycles a.M.br_lost_lane_cycles with
        | 0 -> compare (ka, ia) (kb, ib)
        | c -> c)
      !branch_rows
    |> List.filteri (fun i _ -> i < 5)
  in
  List.iter
    (fun (tag, id, (s : M.branch_stat), after) ->
      let after_str =
        match (after : M.branch_stat option) with
        | None -> "melded away"
        | Some a ->
            Printf.sprintf "%d splits / %d cyc" a.M.br_divergences
              a.M.br_cycles
      in
      Printf.printf "%-8s %-16s %8d %12d %14d   %s\n" tag id
        s.M.br_divergences s.M.br_cycles s.M.br_lost_lane_cycles after_str)
    top5;
  print_newline ();
  (* and one deliberately broken kernel, to show what a finding looks
     like (XBAR/XRACE/XRW are outside Registry.all for good reason) *)
  (match K.Registry.find_any "XRACE" with
  | None -> ()
  | Some bad ->
      let inst =
        bad.K.Kernel.make ~seed:1 ~block_size:64 ~n:bad.K.Kernel.default_n
      in
      let report = CK.Checker.check_func inst.K.Kernel.func in
      print_endline "a seeded-broken kernel, for contrast:";
      print_endline (CK.Checker.report_to_string report));
  print_newline ();
  print_endline
    "note: LUD's branch is statically divergent at every block size, but\n\
     dynamically uniform when half the block is a multiple of the warp\n\
     width - compare LUD here (divergent at its small default) with the\n\
     block-size sweep in Figure 8."
