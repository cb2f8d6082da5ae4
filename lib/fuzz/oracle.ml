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

let check_block_size (cfg : Gen.cfg) (block_size : int) :
    (int, string) result =
  if block_size <= 0 then
    Error
      (Printf.sprintf "field \"block_size\" must be positive, got %d"
         block_size)
  else if cfg.Gen.array_size < block_size then
    (* threads of one block must own distinct [b] cells, or the
       generated kernel races against itself and the schedule oracle is
       unsound *)
    Error
      (Printf.sprintf
         "block_size %d exceeds the profile's array_size %d (the generated \
          kernel would race against itself)"
         block_size cfg.Gen.array_size)
  else Ok block_size

let subject_of_seed ?(cfg = Gen.default_cfg) ?inject ~block_size ~seed () =
  Result.iter_error
    (fun e -> invalid_arg ("Oracle.subject_of_seed: " ^ e))
    (check_block_size cfg block_size);
  let tag = Option.fold ~none:"" ~some:(fun b -> "+" ^ Mutate.tag b) inject in
  {
    sb_name = Printf.sprintf "fuzz_%d%s" seed tag;
    sb_fresh =
      (fun () ->
        let f = Gen.generate ~cfg ~seed () in
        Option.iter
          (fun bug ->
            Result.iter_error
              (fun e -> failwith ("inject: " ^ e))
              (Mutate.inject bug f))
          inject;
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

(* Per-branch attribution invariants shared by both runs. *)
let metrics_invariants (m : Metrics.t) : string option =
  let stats = Metrics.branch_stats m in
  let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 stats in
  let div = sum (fun s -> s.Metrics.br_divergences)
  and reconv = sum (fun s -> s.Metrics.br_reconvergences) in
  (* the last branch with a negative counter *)
  match
    List.find_opt
      (fun (_, (s : Metrics.branch_stat)) ->
        s.br_divergences < 0 || s.br_cycles < 0 || s.br_lost_lane_cycles < 0
        || s.br_reconvergences < 0)
      (List.rev stats)
  with
  | Some (id, _) -> Some (Printf.sprintf "negative branch counter at %s" id)
  | None when div <> m.Metrics.divergent_branches ->
      Some
        (Printf.sprintf
           "per-branch splits sum to %d but divergent_branches = %d" div
           m.Metrics.divergent_branches)
  | None when reconv <> m.Metrics.reconvergences ->
      Some
        (Printf.sprintf
           "per-branch reconvergences sum to %d but reconvergences = %d"
           reconv m.Metrics.reconvergences)
  | None -> None

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
      match (metrics_invariants base, metrics_invariants opt) with
      | Some e, _ -> Some ("base: " ^ e)
      | None, Some e -> Some ("opt: " ^ e)
      | None, None -> None

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
  (* a failure that ends the subject's run, or inside a stage the
     stage's *)
  let exception Halt in
  let halt stage kind detail =
    fail stage kind detail;
    raise Halt
  in
  let verified stage f =
    match Verify.run f with
    | [] -> ()
    | errs ->
        halt stage "verifier"
          (String.concat "; "
             (List.map (fun (e : Verify.error) -> e.Verify.msg) errs))
  in
  let exec ?reconvergence f ~warp_size =
    exec ?reconvergence ~n:subject.sb_n ~input_seed:subject.sb_input_seed
      ~block_size:subject.sb_block_size ~warp_size f
  in
  (try
     let f0 =
       try subject.sb_fresh ()
       with e -> halt "base" "crash" (Printexc.to_string e)
     in
     verified "base" f0;
     let base_report = Checker.check_func f0 in
     (match Checker.errors base_report with
     | [] -> ()
     | d :: _ as ds ->
         (* a checker-flagged kernel is never executed: report and stop
            (mutation-kill targets land here) *)
         halt "base"
           ("checker:" ^ d.Diag.id)
           (String.concat "; " (List.map Diag.to_string ds)));
     let base_m, base_out =
       try exec f0 ~warp_size:64
       with e -> halt "base" "crash" (Printexc.to_string e)
     in
     (* One differential leg: [f] at warp [ws] under the stack model, or
        under independent thread scheduling when [its], against the
        baseline image.  A crash is worded with the leg.  A different
        image is a [schedule] failure for the untransformed kernel under
        the stack model (race-free kernels are schedule-independent),
        [mismatch] for a transformed one, and [xmodel] under ITS (the
        reconvergence strategy is a schedule knob too).  [metrics] sees
        the run's counters before the images are compared. *)
     let leg ?(metrics = ignore) ~its stage f ws =
       let reconvergence =
         if its then Simulator.Its Simulator.default_its_params
         else Simulator.Stack
       in
       match exec ~reconvergence f ~warp_size:ws with
       | exception e ->
           fail stage "crash"
             (Printf.sprintf "%swarp=%d: %s"
                (if its then "its " else "")
                ws (Printexc.to_string e))
       | m, out -> (
           metrics m;
           match Kernel.first_mismatch base_out out with
           | None -> ()
           | Some k ->
               fail stage
                 (if its then "xmodel"
                  else if stage = "base" then "schedule"
                  else "mismatch")
                 (Printf.sprintf "warp=%d index=%d: %s vs %s" ws k
                    (Kernel.rv_to_string base_out.(k))
                    (Kernel.rv_to_string out.(k))))
     in
     List.iter (fun ws -> if ws <> 64 then leg ~its:false "base" f0 ws) warps;
     Option.iter (fail "base" "metrics") (metrics_invariants base_m);
     List.iter
       (fun ws ->
         let metrics m =
           if ws = 64 then
             Option.iter
               (fun d -> fail "base" "metrics" ("its: " ^ d))
               (metrics_invariants m)
         in
         leg ~metrics ~its:true "base" f0 ws)
       warps;
     List.iter
       (fun (stage, (t : E.transform)) ->
         try
           let ft = subject.sb_fresh () in
           let stats =
             match t.E.t_apply ~checked:true ft with
             | _, stats -> stats
             | exception Pass.Validation_failed msg -> halt stage "tv" msg
             | exception e -> halt stage "crash" (Printexc.to_string e)
           in
           verified stage ft;
           (match
              Checker.new_errors ~before:base_report
                ~after:(Checker.check_func ft)
            with
           | [] -> ()
           | d :: _ ->
               fail stage ("checker-regression:" ^ d.Diag.id)
                 (Diag.to_string d));
           let opt_m = ref None in
           List.iter
             (fun ws ->
               let metrics m = if ws = 64 then opt_m := Some m in
               leg ~metrics ~its:false stage ft ws)
             warps;
           List.iter (leg ~its:true stage ft) warps;
           match (stats, !opt_m) with
           | Some stats, Some opt ->
               Option.iter (fail stage "metrics")
                 (report_invariants subject ~stats ~base:base_m ~opt)
           | _ -> ()
         with Halt -> ())
       stages
   with Halt -> ());
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Seed-range driver                                                   *)

let budgeted_chunks ?budget_s ~size items f =
  let deadline = Option.map (fun b -> Clock.now_s () +. b) budget_s in
  let rec take k acc = function
    | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go ci = function
    | [] -> false
    | _ when Option.fold ~none:false ~some:(fun d -> Clock.now_s () > d) deadline
      ->
        true
    | items ->
        let chunk, rest = take size [] items in
        f ci chunk;
        go (ci + 1) rest
  in
  go 0 items

type summary = {
  sm_failing : (subject * failure list) list;
  sm_seeds_run : int;
  sm_seeds_total : int;
  sm_budget_exhausted : bool;
}

let run_seeds ?jobs ?(cfg = Gen.default_cfg) ?inject ?budget_s ~block_size
    ~seeds () : summary =
  let failing = ref [] and run = ref 0 in
  let cut =
    budgeted_chunks ?budget_s
      ~size:(max 4 (Option.value jobs ~default:4))
      seeds
      (fun _ chunk ->
        let subjects =
          List.map
            (fun seed -> subject_of_seed ~cfg ?inject ~block_size ~seed ())
            chunk
        in
        List.iter2
          (fun sb fs -> if fs <> [] then failing := (sb, fs) :: !failing)
          subjects
          (Darm_harness.Parallel_sweep.map ?jobs run_subject subjects);
        run := !run + List.length chunk)
  in
  {
    sm_failing = List.rev !failing;
    sm_seeds_run = !run;
    sm_seeds_total = List.length seeds;
    sm_budget_exhausted = cut;
  }
