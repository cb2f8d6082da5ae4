(** Lockstep differential oracle.  See the interface for the matrix. *)

open Darm_ir
module Kernel = Darm_kernels.Kernel
module Clock = Darm_obs.Clock
module Memory = Darm_sim.Memory
module Simulator = Darm_sim.Simulator
module Metrics = Darm_sim.Metrics
module Checker = Darm_checks.Checker
module Diag = Darm_checks.Diag
module Pass = Darm_core.Pass
module E = Darm_harness.Experiment
module Report = Darm_harness.Report

(* ------------------------------------------------------------------ *)
(* Subjects                                                            *)

type subject = {
  sb_name : string;
  sb_fresh : unit -> Ssa.func;
  sb_block_size : int;
  sb_n : int;
  sb_input_seed : int;
}

let subject_of_seed ?(cfg = Gen.default_cfg) ?inject ~block_size ~seed () =
  (* threads of one block must own distinct [b] cells, or the generated
     kernel races against itself and the schedule oracle is unsound *)
  if cfg.Gen.array_size < block_size then
    invalid_arg
      (Printf.sprintf
         "Oracle.subject_of_seed: array_size %d < block_size %d breaks the \
          own-cell race-freedom discipline"
         cfg.Gen.array_size block_size);
  let name =
    match inject with
    | None -> Printf.sprintf "fuzz_%d" seed
    | Some bug -> Printf.sprintf "fuzz_%d+%s" seed (Mutate.tag bug)
  in
  {
    sb_name = name;
    sb_fresh =
      (fun () ->
        let f = Gen.generate ~cfg ~seed () in
        (match inject with
        | None -> ()
        | Some bug -> (
            match Mutate.inject bug f with
            | Ok () -> ()
            | Error e -> failwith ("inject: " ^ e)));
        f);
    sb_block_size = block_size;
    sb_n = cfg.Gen.array_size;
    sb_input_seed = seed;
  }

let subject_of_text ~name ~block_size ~n ~input_seed text =
  {
    sb_name = name;
    sb_fresh =
      (fun () ->
        match Parser.parse_func text with
        | Ok f -> f
        | Error e -> failwith ("parse: " ^ e));
    sb_block_size = block_size;
    sb_n = n;
    sb_input_seed = input_seed;
  }

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)

let stages =
  List.map
    (fun name -> (name, List.assoc name E.transforms))
    [ "cleanups"; "tail-merge"; "branch-fusion"; "darm"; "darm-nounpred" ]

let warp_sizes = [ 64; 16; 4 ]

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)

type failure = {
  fl_subject : string;
  fl_stage : string;
  fl_kind : string;
  fl_detail : string;
}

let failure_key f = f.fl_stage ^ "/" ^ f.fl_kind

let failure_to_string f =
  Printf.sprintf "FAIL subject=%s stage=%s kind=%s :: %s" f.fl_subject
    f.fl_stage f.fl_kind f.fl_detail

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let exec ?(reconvergence = Simulator.Stack) ~n ~input_seed ~block_size
    ~warp_size (f : Ssa.func) : Metrics.t * Memory.rv array =
  let inst = Gen.workload ~n ~seed:input_seed ~block_size f in
  let config =
    {
      Simulator.default_config with
      warp_size;
      max_cycles_per_warp = 10_000_000;
      reconvergence;
    }
  in
  let m =
    Simulator.run ~config f ~args:inst.Kernel.args ~global:inst.Kernel.global
      inst.Kernel.launch
  in
  (m, inst.Kernel.read_result ())

(* the independent-thread-scheduling model used by the cross-model
   differential legs below *)
let its_model = Simulator.Its Simulator.default_its_params

let mismatch_detail ~warp_size base out =
  match Kernel.first_mismatch base out with
  | None -> None
  | Some k ->
      Some
        (Printf.sprintf "warp=%d index=%d: %s vs %s" warp_size k
           (Kernel.rv_to_string base.(k))
           (Kernel.rv_to_string out.(k)))

(* Per-branch attribution invariants shared by both runs. *)
let metrics_invariants (m : Metrics.t) : string option =
  let stats = Metrics.branch_stats m in
  let neg = ref None in
  let sum_div = ref 0 and sum_reconv = ref 0 in
  List.iter
    (fun (id, (s : Metrics.branch_stat)) ->
      sum_div := !sum_div + s.Metrics.br_divergences;
      sum_reconv := !sum_reconv + s.Metrics.br_reconvergences;
      if
        s.Metrics.br_divergences < 0 || s.Metrics.br_cycles < 0
        || s.Metrics.br_lost_lane_cycles < 0
        || s.Metrics.br_reconvergences < 0
      then neg := Some id)
    stats;
  match !neg with
  | Some id -> Some (Printf.sprintf "negative branch counter at %s" id)
  | None ->
      if !sum_div <> m.Metrics.divergent_branches then
        Some
          (Printf.sprintf
             "per-branch splits sum to %d but divergent_branches = %d"
             !sum_div m.Metrics.divergent_branches)
      else if !sum_reconv > m.Metrics.reconvergences then
        Some
          (Printf.sprintf
             "per-branch reconvergences sum to %d > total %d" !sum_reconv
             m.Metrics.reconvergences)
      else None

let report_invariants subject ~(stats : Pass.stats)
    ~(base : Metrics.t) ~(opt : Metrics.t) : string option =
  if List.length stats.Pass.melds <> stats.Pass.melds_applied then
    Some
      (Printf.sprintf "provenance holds %d records for %d applied melds"
         (List.length stats.Pass.melds)
         stats.Pass.melds_applied)
  else
    let r =
      Report.build ~kernel:subject.sb_name ~block_size:subject.sb_block_size
        ~seed:subject.sb_input_seed ~n:subject.sb_n ~correct:true
        ~rewrites:stats.Pass.melds_applied ~base ~opt
        ~melds:stats.Pass.melds ()
    in
    let saved =
      List.fold_left (fun acc row -> acc + Report.meld_saved row) 0
        r.Report.rp_melds
    in
    if saved + Report.residual r <> Report.delta r then
      Some
        (Printf.sprintf
           "exact-sum identity broken: melds %d + residual %d <> delta %d"
           saved (Report.residual r) (Report.delta r))
    else
      match metrics_invariants base with
      | Some e -> Some ("base: " ^ e)
      | None -> (
          match metrics_invariants opt with
          | Some e -> Some ("opt: " ^ e)
          | None -> None)

(* ------------------------------------------------------------------ *)
(* The matrix                                                          *)

let run_subject ?(stages = stages) ?(warps = warp_sizes) subject :
    failure list =
  let failures = ref [] in
  let fail stage kind detail =
    failures :=
      { fl_subject = subject.sb_name; fl_stage = stage; fl_kind = kind;
        fl_detail = detail }
      :: !failures
  in
  let done_ () = List.rev !failures in
  let exec ?reconvergence f ~warp_size =
    exec ?reconvergence ~n:subject.sb_n ~input_seed:subject.sb_input_seed
      ~block_size:subject.sb_block_size ~warp_size f
  in
  match subject.sb_fresh () with
  | exception e ->
      fail "base" "crash" (Printexc.to_string e);
      done_ ()
  | f0 -> (
      match Verify.run f0 with
      | _ :: _ as errs ->
          fail "base" "verifier"
            (String.concat "; "
               (List.map (fun (e : Verify.error) -> e.Verify.msg) errs));
          done_ ()
      | [] -> (
          let base_report = Checker.check_func f0 in
          match Checker.errors base_report with
          | d :: _ as ds ->
              (* a checker-flagged kernel is never executed: report and
                 stop (mutation-kill targets land here) *)
              fail "base"
                ("checker:" ^ d.Diag.id)
                (String.concat "; " (List.map Diag.to_string ds));
              done_ ()
          | [] -> (
              match exec f0 ~warp_size:64 with
              | exception e ->
                  fail "base" "crash" (Printexc.to_string e);
                  done_ ()
              | base_m, base_out ->
                  (* schedule independence of the untransformed kernel *)
                  List.iter
                    (fun ws ->
                      if ws <> 64 then
                        match exec f0 ~warp_size:ws with
                        | exception e ->
                            fail "base" "crash"
                              (Printf.sprintf "warp=%d: %s" ws
                                 (Printexc.to_string e))
                        | _, out -> (
                            match
                              mismatch_detail ~warp_size:ws base_out out
                            with
                            | Some d -> fail "base" "schedule" d
                            | None -> ()))
                    warps;
                  (match metrics_invariants base_m with
                  | Some d -> fail "base" "metrics" d
                  | None -> ());
                  (* cross-model differential: independent thread
                     scheduling must reproduce the stack model's final
                     memory image at every warp size *)
                  List.iter
                    (fun ws ->
                      match
                        exec ~reconvergence:its_model f0 ~warp_size:ws
                      with
                      | exception e ->
                          fail "base" "crash"
                            (Printf.sprintf "its warp=%d: %s" ws
                               (Printexc.to_string e))
                      | m, out ->
                          (if ws = 64 then
                             match metrics_invariants m with
                             | Some d -> fail "base" "metrics" ("its: " ^ d)
                             | None -> ());
                          (match
                             mismatch_detail ~warp_size:ws base_out out
                           with
                          | Some d -> fail "base" "xmodel" d
                          | None -> ()))
                    warps;
                  List.iter
                    (fun (stage, (t : E.transform)) ->
                      let ft = subject.sb_fresh () in
                      match t.E.t_apply ~checked:true ft with
                      | exception Pass.Validation_failed msg ->
                          fail stage "tv" msg
                      | exception e ->
                          fail stage "crash" (Printexc.to_string e)
                      | _, stats_opt -> (
                          match Verify.run ft with
                          | _ :: _ as errs ->
                              fail stage "verifier"
                                (String.concat "; "
                                   (List.map
                                      (fun (e : Verify.error) ->
                                        e.Verify.msg)
                                      errs))
                          | [] -> (
                              (match
                                 Checker.new_errors ~before:base_report
                                   ~after:(Checker.check_func ft)
                               with
                              | [] -> ()
                              | d :: _ ->
                                  fail stage
                                    ("checker-regression:" ^ d.Diag.id)
                                    (Diag.to_string d));
                              let opt_m = ref None in
                              List.iter
                                (fun ws ->
                                  match exec ft ~warp_size:ws with
                                  | exception e ->
                                      fail stage "crash"
                                        (Printf.sprintf "warp=%d: %s" ws
                                           (Printexc.to_string e))
                                  | m, out ->
                                      if ws = 64 then opt_m := Some m;
                                      (match
                                         mismatch_detail ~warp_size:ws
                                           base_out out
                                       with
                                      | Some d ->
                                          fail stage "mismatch" d
                                      | None -> ()))
                                warps;
                              (* the transformed kernel must also agree
                                 with the stack-model baseline image
                                 when run under independent thread
                                 scheduling *)
                              List.iter
                                (fun ws ->
                                  match
                                    exec ~reconvergence:its_model ft
                                      ~warp_size:ws
                                  with
                                  | exception e ->
                                      fail stage "crash"
                                        (Printf.sprintf "its warp=%d: %s" ws
                                           (Printexc.to_string e))
                                  | _, out -> (
                                      match
                                        mismatch_detail ~warp_size:ws
                                          base_out out
                                      with
                                      | Some d ->
                                          fail stage "xmodel" d
                                      | None -> ()))
                                warps;
                              match (stats_opt, !opt_m) with
                              | Some stats, Some opt ->
                                  (match
                                     report_invariants subject ~stats
                                       ~base:base_m ~opt
                                   with
                                  | Some d -> fail stage "metrics" d
                                  | None -> ())
                              | _ -> ())))
                    stages;
                  done_ ())))

(* ------------------------------------------------------------------ *)
(* Seed-range driver                                                   *)

let chunks (size : int) (l : 'a list) : 'a list list =
  let rec take k = function
    | x :: tl when k > 0 ->
        let a, b = take (k - 1) tl in
        (x :: a, b)
    | l -> ([], l)
  in
  let rec go = function
    | [] -> []
    | l ->
        let c, rest = take size l in
        c :: go rest
  in
  go l

type summary = {
  sm_failures : failure list;
  sm_seeds_run : int;
  sm_seeds_total : int;
  sm_budget_exhausted : bool;
}

let run_seeds ?jobs ?(cfg = Gen.default_cfg)
    ?inject ?budget_s ~block_size ~seeds () : summary =
  let deadline =
    Option.map (fun b -> Clock.now_s () +. b) budget_s
  in
  let total = List.length seeds in
  let failures = ref [] and run = ref 0 and cut = ref false in
  List.iter
    (fun chunk ->
      let past_deadline =
        match deadline with
        | Some d -> Clock.now_s () > d
        | None -> false
      in
      if past_deadline then cut := true
      else begin
        let outcomes =
          Darm_harness.Parallel_sweep.map ?jobs
            (fun seed ->
              run_subject
                (subject_of_seed ~cfg ?inject ~block_size ~seed ()))
            chunk
        in
        List.iter
          (fun fs -> failures := List.rev_append fs !failures)
          outcomes;
        run := !run + List.length chunk
      end)
    (chunks (max 4 (Option.value jobs ~default:4)) seeds);
  {
    sm_failures = List.rev !failures;
    sm_seeds_run = !run;
    sm_seeds_total = total;
    sm_budget_exhausted = !cut;
  }
