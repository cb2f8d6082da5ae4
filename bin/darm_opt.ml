(* darm_opt: command-line driver for the DARM melding pipeline.

   Examples:
     darm_opt list
     darm_opt show --kernel BIT --block-size 128
     darm_opt meld --kernel BIT --block-size 128 --dump-after
     darm_opt meld --kernel SB3 --pass branch-fusion
     darm_opt divergence --kernel PCM
     darm_opt simulate --kernel BIT --block-size 128 -n 512
     darm_opt profile --kernel BIT --format chrome --trace-out trace.json
*)

open Cmdliner
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module E = Darm_harness.Experiment
module Profile = Darm_harness.Profile
module Export = Darm_obs.Export

let find_kernel tag =
  match Registry.find tag with
  | Some k -> k
  | None ->
      Printf.eprintf "unknown kernel %s; available: %s\n" tag
        (String.concat ", " (Registry.tags ()));
      exit 2

let find_transform name =
  match E.transform_of_name name with
  | Ok t -> t
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let kernel_arg =
  let doc = "Benchmark kernel tag (see the list command)." in
  Arg.(value & opt string "BIT" & info [ "k"; "kernel" ] ~docv:"TAG" ~doc)

let block_size_arg =
  let doc = "Thread-block size." in
  Arg.(value & opt int 128 & info [ "b"; "block-size" ] ~docv:"N" ~doc)

let n_arg =
  let doc = "Number of input elements (defaults to the kernel's choice)." in
  Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Input random seed." in
  Arg.(value & opt int 2022 & info [ "seed" ] ~docv:"SEED" ~doc)

let pass_names = String.concat ", " (List.map fst E.transforms)

let pass_arg =
  let doc = "Pipeline step: one of " ^ pass_names ^ "." in
  Arg.(value & opt string "darm" & info [ "p"; "pass" ] ~docv:"PASS" ~doc)

let jobs_arg =
  let doc =
    "Domain-pool size for independent simulations (default: DARM_JOBS from \
     the environment, else the core count)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let mem_model_arg =
  let doc =
    "Memory model: flat (per-opcode latencies, the default) or hier \
     (coalescing/L1/LDS-conflict/MSHR hierarchy with per-site attribution; \
     see doc/observability.md)."
  in
  Arg.(
    value
    & opt (enum Darm_sim.Simulator.mem_models) Darm_sim.Simulator.Flat
    & info [ "mem-model" ] ~docv:"MODEL" ~doc)

let reconvergence_arg =
  let doc =
    "Reconvergence model: stack (IPDOM SIMT stack, the default) or its \
     (independent thread scheduling: per-lane PCs, MinPC group issue, \
     opportunistic reconvergence; see doc/simulation.md)."
  in
  Arg.(
    value
    & opt (enum Darm_sim.Simulator.reconvergences) Darm_sim.Simulator.Stack
    & info [ "reconvergence" ] ~docv:"MODEL" ~doc)

let format_arg =
  let doc = "Trace output format: chrome (Perfetto / chrome://tracing) or \
             jsonl (one event object per line)." in
  Arg.(
    value
    & opt (enum [ ("chrome", Export.Chrome); ("jsonl", Export.Jsonl) ])
        Export.Chrome
    & info [ "format" ] ~docv:"FMT" ~doc)

let trace_out_arg =
  let doc = "Write the structured execution trace to $(docv) (see \
             doc/observability.md)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let write_trace ~format ~path trace =
  Export.write_file ~format ~path trace;
  Printf.printf ";; trace: %s (%d events, %s)\n" path
    (Darm_obs.Trace.length trace)
    (match format with Export.Chrome -> "chrome" | Export.Jsonl -> "jsonl")

(* --metrics-out FILE [--metrics-format prom|json]: evaluates to the
   writer a command hands its filled registry, or [None] without
   --metrics-out *)
let metrics_out_term doc =
  let module MR = Darm_obs.Metrics_registry in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("prom", `Prom); ("json", `Json) ]) `Prom
      & info [ "metrics-format" ] ~docv:"FMT"
          ~doc:
            "Metrics snapshot format: prom (Prometheus text exposition) or \
             json (darm-metrics-v1).")
  in
  let writer path format reg =
    let snap = MR.snapshot reg in
    let contents =
      match format with
      | `Prom -> MR.to_prometheus snap
      | `Json -> Darm_obs.Json.to_string (MR.to_json snap) ^ "\n"
    in
    Darm_obs.Fsio.write_atomic ~path contents;
    let n = List.length snap in
    Printf.eprintf ";; metrics: %s (%d famil%s)\n" path n
      (if n = 1 then "y" else "ies")
  in
  Term.(
    const (fun out format -> Option.map (fun path -> writer path format) out)
    $ out $ format)

let make_instance kernel ~seed ~block_size ~n =
  let n = Option.value ~default:kernel.Kernel.default_n n in
  kernel.Kernel.make ~seed ~block_size ~n

(* --- commands --- *)

let list_cmd =
  let run () =
    List.iter
      (fun k ->
        Printf.printf "%-8s %-36s block sizes: %s\n" k.Kernel.tag
          k.Kernel.name
          (String.concat ", " (List.map string_of_int k.Kernel.block_sizes)))
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available benchmark kernels.")
    Term.(const run $ const ())

let show_cmd =
  let run tag block_size n seed =
    let kernel = find_kernel tag in
    let inst = make_instance kernel ~seed ~block_size ~n in
    print_string (Darm_ir.Printer.func_to_string inst.Kernel.func)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a kernel's SSA IR before any transformation.")
    Term.(const run $ kernel_arg $ block_size_arg $ n_arg $ seed_arg)

let divergence_cmd =
  let run tag block_size n seed =
    let kernel = find_kernel tag in
    let inst = make_instance kernel ~seed ~block_size ~n in
    let f = inst.Kernel.func in
    let dvg = Darm_analysis.Manager.divergence f in
    print_string (Darm_analysis.Divergence.report dvg f)
  in
  Cmd.v
    (Cmd.info "divergence"
       ~doc:"Run divergence analysis on a kernel and print the report.")
    Term.(const run $ kernel_arg $ block_size_arg $ n_arg $ seed_arg)

let meld_cmd =
  let module MR = Darm_obs.Metrics_registry in
  let dump_before =
    Arg.(value & flag & info [ "dump-before" ] ~doc:"Print the input IR.")
  in
  let dump_after =
    Arg.(value & flag & info [ "dump-after" ] ~doc:"Print the output IR.")
  in
  let metrics_out =
    metrics_out_term
      "Export the pass's darm_pass_* counters (melds, scored and \
       prefiltered candidate pairs, avoided analysis recomputes) as a \
       metrics snapshot to $(docv)."
  in
  let run tag block_size n seed pass before after write_metrics =
    let kernel = find_kernel tag in
    let transform = find_transform pass in
    let inst = make_instance kernel ~seed ~block_size ~n in
    let f = inst.Kernel.func in
    if before then begin
      print_endline ";; --- before ---";
      print_string (Darm_ir.Printer.func_to_string f)
    end;
    let rewrites, pass_stats = transform.E.t_apply f in
    Darm_ir.Verify.run_exn f;
    Printf.printf ";; pass %s applied %d rewrite(s)\n" pass rewrites;
    Option.iter
      (fun s ->
        Printf.printf
          ";; candidates: %d scored, %d prefiltered; analysis: %d \
           recompute(s) avoided\n"
          s.Darm_core.Pass.pairs_scored
          s.Darm_core.Pass.candidates_prefiltered
          s.Darm_core.Pass.analysis_recomputes_avoided)
      pass_stats;
    if after then begin
      print_endline ";; --- after ---";
      print_string (Darm_ir.Printer.func_to_string f)
    end;
    match write_metrics, pass_stats with
    | None, _ | _, None -> ()
    | Some write, Some s ->
        let reg = MR.create () in
        Darm_core.Pass.fill_metrics reg ~labels:[ ("kernel", tag) ] s;
        write reg
  in
  Cmd.v
    (Cmd.info "meld" ~doc:"Apply a divergence-reduction pass to a kernel.")
    Term.(
      const run $ kernel_arg $ block_size_arg $ n_arg $ seed_arg $ pass_arg
      $ dump_before $ dump_after $ metrics_out)

let simulate_cmd =
  let run tag block_size n seed pass trace_out format mem_model reconvergence
      =
    let kernel = find_kernel tag in
    let transform = find_transform pass in
    let r, trace =
      match trace_out with
      | None ->
          (E.run ~transform ~seed ?n ~mem_model ~reconvergence kernel
             ~block_size,
           None)
      | Some path ->
          let tr, r =
            Profile.run_point ~seed ?n ~mem_model ~reconvergence ~transform
              kernel ~block_size
          in
          (r, Some (path, tr))
    in
    let ws = r.E.machine.Darm_sim.Simulator.warp_size in
    Printf.printf "kernel %s, block size %d, pass %s (%d rewrites)\n" r.E.tag
      r.E.block_size r.E.transform_name r.E.rewrites;
    Printf.printf "  baseline: %s\n"
      (Darm_sim.Metrics.to_string r.E.base ~warp_size:ws);
    Printf.printf "  %-9s %s\n"
      (r.E.transform_name ^ ":")
      (Darm_sim.Metrics.to_string r.E.opt ~warp_size:ws);
    Printf.printf "  speedup: %.3fx   output %s\n" (E.speedup r)
      (if r.E.correct then "correct" else "INCORRECT");
    (match trace with
    | None -> ()
    | Some (path, tr) -> write_trace ~format ~path tr);
    if not r.E.correct then exit 1
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Simulate a kernel with and without a pass; report metrics and \
          verify output equivalence.  With --trace-out, also record the \
          structured execution trace.")
    Term.(
      const run $ kernel_arg $ block_size_arg $ n_arg $ seed_arg $ pass_arg
      $ trace_out_arg $ format_arg $ mem_model_arg $ reconvergence_arg)

let print_sweep_table (kernel : Kernel.t) (results : E.result list) : unit =
  Printf.printf "%-8s %8s %12s %12s %9s %9s %8s\n" "bench" "bs" "base cyc"
    "opt cyc" "speedup" "alu-util" "correct";
  List.iter2
    (fun block_size r ->
      Printf.printf "%-8s %8d %12d %12d %8.2fx %8.1f%% %8s\n" r.E.tag
        block_size r.E.base.Darm_sim.Metrics.cycles
        r.E.opt.Darm_sim.Metrics.cycles (E.speedup r)
        (Darm_sim.Metrics.alu_utilization r.E.opt
           ~warp_size:r.E.machine.Darm_sim.Simulator.warp_size)
        (if r.E.correct then "yes" else "NO"))
    kernel.Kernel.block_sizes results

let sweep_cmd =
  let run tag n seed pass jobs trace_out format mem_model reconvergence =
    let kernel = find_kernel tag in
    let transform = find_transform pass in
    let results =
      match trace_out with
      | None ->
          E.run_many ?jobs
            (List.map
               (fun block_size () ->
                 E.run ~transform ~seed ?n ~mem_model ~reconvergence kernel
                   ~block_size)
               kernel.Kernel.block_sizes)
      | Some path ->
          let trace, results =
            Profile.sweep ?jobs ~seed ?n ~mem_model ~reconvergence ~transform
              kernel
          in
          write_trace ~format ~path trace;
          results
    in
    print_sweep_table kernel results;
    if not (E.all_correct results) then exit 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a kernel's full block-size sweep and tabulate the metrics.  \
          With --trace-out, also record the merged structured trace \
          (byte-identical for any --jobs count).")
    Term.(
      const run $ kernel_arg $ n_arg $ seed_arg $ pass_arg $ jobs_arg
      $ trace_out_arg $ format_arg $ mem_model_arg $ reconvergence_arg)

let profile_cmd =
  let out_arg =
    let doc = "Trace output file." in
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run tag n seed pass jobs format trace_out =
    let kernel = find_kernel tag in
    let transform = find_transform pass in
    let trace, results = Profile.sweep ?jobs ~seed ?n ~transform kernel in
    print_sweep_table kernel results;
    write_trace ~format ~path:trace_out trace;
    if not (E.all_correct results) then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a kernel's block-size sweep with full observability: \
          pass-pipeline spans and meld decisions (region, subgraph pair, \
          FP_S, accept/reject), per-warp divergence timelines of both the \
          baseline and transformed simulations, and per-block cycle spans \
          — written as a Chrome trace-event file (open in Perfetto) or \
          JSONL.  Output is byte-identical for any --jobs count.")
    Term.(
      const run $ kernel_arg $ n_arg $ seed_arg $ pass_arg $ jobs_arg
      $ format_arg $ out_arg)

(* read FILE, parse it and verify every kernel before any pass runs:
   a module that does not verify is a parse error too (exit 1) *)
let read_module parse file : Darm_ir.Ssa.modul =
  let verified (m : Darm_ir.Ssa.modul) =
    let errors =
      List.concat_map
        (fun (f : Darm_ir.Ssa.func) ->
          List.map
            (fun (e : Darm_ir.Verify.error) ->
              Printf.sprintf "@%s: %s" f.fname e.msg)
            (Darm_ir.Verify.check f))
        m.funcs
    in
    if errors = [] then Ok m else Error (String.concat "; " errors)
  in
  match
    Result.bind (Darm_obs.Fsio.read file) (fun text ->
        Result.bind (parse ~name:(Filename.basename file) text) verified)
  with
  | Ok m -> m
  | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1

let parse_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Textual IR file (.cir).")
  in
  let run file =
    let m = read_module Darm_ir.Parser.parse_module file in
    List.iter
      (fun f -> print_string (Darm_ir.Printer.func_to_string f))
      m.Darm_ir.Ssa.funcs
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Parse, verify and re-print a textual IR file (round-trip).")
    Term.(const run $ file)

let compile_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Textual IR file (.cir).")
  in
  let pipeline =
    Arg.(
      value
      & opt (list string) [ "simplify"; "darm" ]
      & info [ "passes" ] ~docv:"P1,P2,..."
          ~doc:("Comma-separated pipeline over: " ^ pass_names ^ "."))
  in
  let run file passes =
    let parse =
      if Filename.check_suffix file ".hip" || Filename.check_suffix file ".cu"
      then Darm_frontend.Lower.compile
      else Darm_ir.Parser.parse_module
    in
    let m = read_module parse file in
    let steps = List.map find_transform passes in
    List.iter
      (fun f ->
        List.iter (fun t -> ignore (t.E.t_apply f)) steps;
        Darm_ir.Verify.run_exn f)
      m.Darm_ir.Ssa.funcs;
    print_string (Darm_ir.Printer.module_to_string m)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Parse a module (.cir textual IR, or .hip/.cu Mini-HIP source), \
          run a pass pipeline over every kernel, verify, and print the \
          resulting IR.")
    Term.(const run $ file $ pipeline)

let dot_cmd =
  let melded =
    Arg.(value & flag & info [ "melded" ] ~doc:"Run DARM before exporting.")
  in
  let run tag block_size n seed melded =
    let kernel = find_kernel tag in
    let inst = make_instance kernel ~seed ~block_size ~n in
    let f = inst.Kernel.func in
    if melded then ignore (E.darm_default.E.t_apply f);
    let dvg = Darm_analysis.Manager.divergence f in
    print_string
      (Darm_ir.Dot.func_to_dot
         ~highlight:(Darm_analysis.Divergence.is_divergent_branch dvg)
         f)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Export a kernel's CFG as Graphviz dot (divergent branches \
          highlighted); pipe into `dot -Tsvg`.")
    Term.(
      const run $ kernel_arg $ block_size_arg $ n_arg $ seed_arg $ melded)

let trace_cmd =
  let module Tr = Darm_obs.Trace in
  let value_str = function
    | Tr.Str s -> s
    | Tr.Int i -> string_of_int i
    | Tr.Float x -> Printf.sprintf "%g" x
    | Tr.Bool b -> string_of_bool b
  in
  let run tag block_size n seed pass =
    let kernel = find_kernel tag in
    let inst = make_instance kernel ~seed ~block_size ~n in
    let f = inst.Kernel.func in
    let t = find_transform pass in
    ignore (t.E.t_apply f);
    Darm_ir.Verify.run_exn f;
    let obs = Tr.create () in
    let config = { Darm_sim.Simulator.default_config with obs = Some obs } in
    let m =
      Darm_sim.Simulator.run ~config f ~args:inst.Kernel.args
        ~global:inst.Kernel.global inst.Kernel.launch
    in
    List.iter
      (fun (ev : Tr.event) ->
        match ev.Tr.ev_name with
        | "warp.diverge" | "warp.reconverge" | "warp.barrier" ->
            (* warp tracks are tid [1 + tid_base] *)
            Printf.printf "cycle=%d warp=%d %s%s\n" ev.Tr.ev_ts
              (ev.Tr.ev_tid - 1) ev.Tr.ev_name
              (String.concat ""
                 (List.map
                    (fun (k, v) -> Printf.sprintf " %s=%s" k (value_str v))
                    ev.Tr.ev_args))
        | _ -> ())
      (Tr.events obs);
    Printf.printf ";; %s\n"
      (Darm_sim.Metrics.to_string m
         ~warp_size:config.Darm_sim.Simulator.warp_size)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Execute a kernel printing its divergence timeline: one line per \
          warp split, reconvergence and barrier (cycle, warp, event and \
          its attributes), then the run's metrics.")
    Term.(
      const run $ kernel_arg $ block_size_arg $ n_arg $ seed_arg $ pass_arg)

let check_cmd =
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Check every registry kernel (at its first block size) instead \
             of a single one.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the darm-check-v1 JSON report instead of text.")
  in
  let check_pass_arg =
    let doc =
      "Pipeline step to apply before checking: one of " ^ pass_names ^ "."
    in
    Arg.(value & opt string "none" & info [ "p"; "pass" ] ~docv:"PASS" ~doc)
  in
  let run tag block_size n seed pass all json =
    let kernels =
      if all then Registry.all
      else
        match Registry.find_any tag with
        | Some k -> [ k ]
        | None ->
            Printf.eprintf "unknown kernel %s; available: %s\n" tag
              (String.concat ", "
                 (Registry.tags ()
                 @ List.map
                     (fun k -> k.Kernel.tag)
                     Registry.negative));
            exit 2
    in
    let transform = find_transform pass in
    let reports =
      List.map
        (fun k ->
          let bs =
            if all then
              match k.Kernel.block_sizes with b :: _ -> b | [] -> block_size
            else block_size
          in
          let inst = make_instance k ~seed ~block_size:bs ~n in
          let f = inst.Kernel.func in
          ignore (transform.E.t_apply f);
          Darm_checks.Checker.check_func f)
        kernels
    in
    let module C = Darm_checks.Checker in
    if json then
      let js = List.map C.report_to_json reports in
      match js with
      | [ one ] when not all ->
          print_endline (Darm_obs.Json.to_string one)
      | _ -> print_endline (Darm_obs.Json.to_string (Darm_obs.Json.List js))
    else
      List.iter (fun r -> print_string (C.report_to_string r)) reports;
    let errors =
      List.fold_left (fun acc r -> acc + List.length (C.errors r)) 0 reports
    in
    if not json then
      Printf.printf ";; checked %d kernel(s), pass %s: %d error(s)\n"
        (List.length reports) transform.E.t_name errors;
    if errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the GPU sanity checkers (barrier divergence, shared-memory \
          races, IR hygiene) over a kernel — or all of them — optionally \
          after a transformation; non-zero exit on any error diagnostic.")
    Term.(
      const run $ kernel_arg $ block_size_arg $ n_arg $ seed_arg
      $ check_pass_arg $ all_flag $ json_flag)

let fuzz_cmd =
  let module O = Darm_fuzz.Oracle in
  let module G = Darm_fuzz.Gen in
  let module M = Darm_fuzz.Mutate in
  let module Sh = Darm_fuzz.Shrink in
  let module Corpus = Darm_fuzz.Corpus in
  let count =
    Arg.(value & opt int 50 & info [ "count" ] ~docv:"N"
           ~doc:"Number of generator seeds to run through the oracle.")
  in
  let seed_start =
    Arg.(value & opt int 0 & info [ "seed-start" ] ~docv:"S"
           ~doc:"First generator seed of the range.")
  in
  let fuzz_block_size =
    Arg.(value & opt int 64 & info [ "b"; "block-size" ] ~docv:"N"
           ~doc:"Thread-block size of the generated launches.")
  in
  let budget =
    Arg.(value & opt (some float) None & info [ "budget-s" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget; no new seed chunk starts past the \
                 deadline, so a generous budget never changes the outcome.")
  in
  let features =
    Arg.(value & opt string "all" & info [ "features" ] ~docv:"SPEC"
           ~doc:"Generator features: $(b,all), $(b,none), or a comma list \
                 drawn from loops-uniform, loops-divergent, barriers, \
                 shared-tile, nested-diamonds, switch-ladders.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Small generator profile (shallow nesting, short blocks).")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"TAG"
           ~doc:"Inject a seeded bug (XBAR, XRACE or XRW) into every \
                 generated kernel; the oracle must flag each one, so the \
                 exit status is non-zero exactly when detection works.")
  in
  let minimize =
    Arg.(value & flag & info [ "minimize" ]
           ~doc:"Delta-debug each failing seed to a minimal repro.")
  in
  let corpus_dir =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"With $(b,--minimize): save each shrunk repro to DIR as a \
                 replayable corpus entry.")
  in
  let replay_dir =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"DIR"
           ~doc:"Replay a corpus directory instead of generating kernels; \
                 every entry must match its recorded expectation.")
  in
  let replay dir =
    let entries = Corpus.load_dir dir in
    if entries = [] then begin
      Printf.eprintf "no corpus entries under %s\n" dir;
      exit 2
    end;
    let bad = ref 0 in
    List.iter
      (fun (file, e) ->
        match e with
        | Error msg ->
            incr bad;
            Printf.printf "REPLAY %s: bad entry: %s\n" file msg
        | Ok entry -> (
            match Corpus.replay entry with
            | Ok () ->
                Printf.printf "REPLAY %s: ok (%s)\n" file
                  (Corpus.expectation_to_string entry.Corpus.en_expect)
            | Error msg ->
                incr bad;
                Printf.printf "REPLAY %s: %s\n" file msg))
      entries;
    Printf.printf "fuzz replay: %d entries, %d bad\n" (List.length entries)
      !bad;
    if !bad > 0 then exit 1
  in
  let run count seed_start block_size jobs budget_s features smoke inject
      minimize corpus_dir replay_dir =
    match replay_dir with
    | Some dir -> replay dir
    | None ->
        let usage_error e =
          Printf.eprintf "%s\n" e;
          exit 2
        in
        let cfg =
          match G.cfg_of ~smoke ~features with
          | Ok cfg -> cfg
          | Error e -> usage_error e
        in
        let block_size =
          match O.check_block_size cfg block_size with
          | Ok b -> b
          | Error e -> usage_error e
        in
        let inject =
          Option.map
            (fun tag ->
              match M.of_tag tag with
              | Some b -> b
              | None ->
                  Printf.eprintf "unknown bug tag %s (XBAR, XRACE, XRW)\n"
                    tag;
                  exit 2)
            inject
        in
        let seeds = List.init count (fun i -> seed_start + i) in
        let sum =
          O.run_seeds ?jobs ?budget_s ~cfg ?inject ~block_size ~seeds ()
        in
        let failures = List.concat_map snd sum.O.sm_failing in
        List.iter (fun fl -> print_endline (O.failure_to_string fl)) failures;
        if minimize then
          (* one shrink per failing subject, of its first failure; a
             subject whose kernel cannot be built has only its FAIL line *)
          List.iter
            (fun (sb, fls) ->
              let fl = List.hd fls in
              Option.iter
                (fun (r, entry) ->
                  Printf.printf
                    "MINIMIZED subject=%s key=%s blocks=%d steps=%d\n%s"
                    fl.O.fl_subject (O.failure_key fl) r.Sh.sh_blocks
                    r.Sh.sh_steps r.Sh.sh_text;
                  Option.iter
                    (fun dir ->
                      Printf.printf "CORPUS %s\n" (Corpus.save ~dir entry))
                    corpus_dir)
                (Sh.minimize_failure sb fl))
            sum.O.sm_failing;
        Printf.printf "fuzz: %d/%d seed(s), %d failure(s)%s\n"
          sum.O.sm_seeds_run sum.O.sm_seeds_total (List.length failures)
          (if sum.O.sm_budget_exhausted then " [budget exhausted]" else "");
        if failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generative conformance fuzzing: structured random kernels (loops, \
          barriers, shared tiles, nested diamonds) run through every \
          pipeline stage under a lockstep differential oracle; failures \
          shrink to minimal corpus repros.")
    Term.(
      const run $ count $ seed_start $ fuzz_block_size $ jobs_arg $ budget
      $ features $ smoke $ inject $ minimize $ corpus_dir $ replay_dir)

let report_cmd =
  let module Report = Darm_harness.Report in
  let module MR = Darm_obs.Metrics_registry in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Report every registry kernel (at its first block size) instead \
             of a single one.")
  in
  let fmt_arg =
    let doc = "Output format: text, json (darm-report-v2) or markdown." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("markdown", `Md) ])
          `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Shorthand for --format json.")
  in
  let metrics_out =
    metrics_out_term
      "Also export both runs' counters (including the per-branch \
       attribution series) as a metrics snapshot to $(docv)."
  in
  let run tag block_size n seed jobs all fmt json write_metrics mem_model
      reconvergence =
    let fmt = if json then `Json else fmt in
    let points =
      if all then
        List.map
          (fun k ->
            ( k,
              match k.Kernel.block_sizes with
              | b :: _ -> b
              | [] -> block_size ))
          Registry.all
      else [ (find_kernel tag, block_size) ]
    in
    let reports =
      Report.compute_many ?jobs ~seed ?n ~mem_model ~reconvergence points
    in
    (match fmt with
    | `Json -> (
        match reports with
        | [ one ] when not all ->
            print_endline (Darm_obs.Json.to_string (Report.to_json one))
        | _ ->
            print_endline
              (Darm_obs.Json.to_string (Report.many_to_json reports)))
    | `Text ->
        List.iteri
          (fun i r ->
            if i > 0 then print_newline ();
            print_string (Report.to_text r))
          reports
    | `Md ->
        List.iteri
          (fun i r ->
            if i > 0 then print_newline ();
            print_string (Report.to_markdown r))
          reports);
    Option.iter
      (fun write ->
        let reg = MR.create () in
        List.iter (Report.fill_metrics reg) reports;
        write reg)
      write_metrics;
    if List.exists (fun r -> not r.Report.rp_correct) reports then exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Divergence attribution: run a kernel (or all of them) \
          baseline-vs-DARM and join the simulator's per-branch divergence \
          counters with the pass's meld provenance into a \
          cycles-saved-per-meld table, plus the per-access-site memory \
          table (coalescing, L1, conflicts, stalls under --mem-model \
          hier).  Per-meld rows plus an explicit residual row sum exactly \
          to the total cycle delta, and per-site memory deltas close the \
          same identity through the non-memory residual.  Output is \
          byte-identical for any --jobs count.")
    Term.(
      const run $ kernel_arg $ block_size_arg $ n_arg $ seed_arg $ jobs_arg
      $ all_flag $ fmt_arg $ json_flag $ metrics_out $ mem_model_arg
      $ reconvergence_arg)

let batch_cmd =
  let module B = Darm_fuzz.Batch in
  let module Cache = Darm_harness.Result_cache in
  let module History = Darm_harness.History in
  let module MR = Darm_obs.Metrics_registry in
  let manifest_arg =
    let doc =
      "JSONL manifest of kernel specs, one darm-manifest-v1 object per \
       line (see doc/fleet.md)."
    in
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "manifest" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Result file: one darm-batchres-v1 JSON line per manifest \
               entry, in manifest order at any --jobs count." in
    Arg.(
      value
      & opt string "batch_results.jsonl"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let budget =
    Arg.(value & opt (some float) None & info [ "budget-s" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget; no new chunk starts past the deadline, \
                 so a generous budget never changes the outcome.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string Cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Root of the content-addressed result cache.")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Recompute every entry; neither read nor write the cache.")
  in
  let clear_cache =
    Arg.(value & flag & info [ "clear-cache" ]
           ~doc:"Empty the cache before running.")
  in
  let history_path_arg =
    Arg.(
      value
      & opt string History.default_path
      & info [ "history" ] ~docv:"FILE"
          ~doc:"Bench history file the run's throughput record appends to.")
  in
  let no_history =
    Arg.(value & flag & info [ "no-history" ]
           ~doc:"Do not append a throughput record to the bench history.")
  in
  let metrics_out =
    metrics_out_term
      "Export the run's darm_batch_* counters as a metrics snapshot to \
       $(docv)."
  in
  let gen_fuzz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "gen-fuzz" ] ~docv:"COUNT"
          ~doc:
            "Instead of running, write a manifest of $(docv) consecutive \
             fuzz seeds to --manifest and exit.")
  in
  let seed_start =
    Arg.(value & opt int 0 & info [ "seed-start" ] ~docv:"S"
           ~doc:"With --gen-fuzz: first generator seed.")
  in
  let gen_block_size =
    Arg.(value & opt int 64 & info [ "b"; "block-size" ] ~docv:"N"
           ~doc:"With --gen-fuzz: thread-block size of the specs.")
  in
  let profile =
    Arg.(
      value
      & opt (enum [ ("smoke", true); ("default", false) ]) true
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:"With --gen-fuzz: generator profile, smoke or default.")
  in
  let gen_features =
    Arg.(value & opt string "all" & info [ "features" ] ~docv:"SPEC"
           ~doc:"With --gen-fuzz: generator feature spec.")
  in
  let gen_inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"TAG"
          ~doc:
            "With --gen-fuzz: graft a known bug (XBAR, XRACE or XRW) onto \
             every generated kernel, producing a known-bad manifest whose \
             specs the checker rejects — for exercising failure paths \
             (--fail-on-error, CI).")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Journal the run to $(docv) as a JSONL trace, one instant \
             per line (run/chunk/spec lifecycle, cache hits/misses, \
             stalls).  Its canonical form (darm_opt events --canonical) \
             is byte-identical at any --jobs count.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"BASE"
          ~doc:
            "Write periodic atomic metrics snapshots to $(docv).prom \
             (Prometheus text) and $(docv).json (darm-metrics-v1) while \
             the run is in flight — the darm_opt top data source.")
  in
  let cadence_arg =
    Arg.(value & opt float 1.0 & info [ "snapshot-cadence-s" ] ~docv:"S"
           ~doc:"Seconds between snapshot rewrites (with --snapshot).")
  in
  let stall_arg =
    Arg.(value & opt float 30. & info [ "stall-deadline-s" ] ~docv:"S"
           ~doc:
             "Flag a busy worker stalled after $(docv) seconds without a \
              completed spec (with --events/--snapshot).  Size it well \
              above the slowest expected spec.")
  in
  let fail_on_error =
    Arg.(
      value & flag
      & info [ "fail-on-error" ]
          ~doc:
            "Also exit non-zero when any spec failed to complete cleanly \
             (status error or check-failed).  Without it only incorrect \
             kernels — melding bugs — fail the run; fleet sweeps tolerate \
             the occasional degenerate generator seed.")
  in
  let run manifest out jobs budget_s cache_dir no_cache clear_cache
      history_path no_history write_metrics gen_fuzz seed_start
      block_size smoke features inject events snapshot cadence_s
      stall_deadline_s fail_on_error =
    match gen_fuzz with
    | Some count ->
        (try
           B.write_fuzz_manifest ~path:manifest ~count ~seed_start
             ~block_size ~smoke ~features ?inject ()
         with Invalid_argument msg ->
           Printf.eprintf "batch: %s\n" msg;
           exit 2);
        Printf.printf ";; manifest: %s (%d fuzz spec(s))\n" manifest count
    | None -> (
        match B.read_manifest manifest with
        | Error msg ->
            Printf.eprintf "batch: %s\n" msg;
            exit 2
        | Ok specs ->
            let cache =
              if no_cache then None else Some (Cache.create ~dir:cache_dir ())
            in
            (match (clear_cache, cache) with
            | true, Some c ->
                Printf.eprintf ";; cache cleared (%d entrie(s))\n"
                  (Cache.clear c)
            | _ -> ());
            (* the registry lives through the run (live accounting), so
               --metrics-out exports it directly afterwards *)
            let reg = MR.create () in
            let sum =
              B.run ?jobs ?budget_s ?cache ~registry:reg ?events ?snapshot
                ~cadence_s ~stall_deadline_s ~out specs
            in
            Printf.printf ";; results: %s\n" out;
            (match events with
            | Some p -> Printf.eprintf ";; events: %s\n" p
            | None -> ());
            (match snapshot with
            | Some b -> Printf.eprintf ";; snapshot: %s.{prom,json}\n" b
            | None -> ());
            Option.iter (fun write -> write reg) write_metrics;
            if not no_history then begin
              History.append ~path:history_path
                (History.of_batch ?jobs ~time:(Unix.gettimeofday ())
                   (B.to_batch_stats sum));
              Printf.eprintf ";; history: %s\n" history_path
            end;
            print_endline (B.summary_to_string sum);
            if
              sum.B.bt_incorrect > 0
              || (fail_on_error
                 && sum.B.bt_errors + sum.B.bt_check_failed > 0)
            then exit 1)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Fleet-scale sweep: stream a JSONL manifest of kernel specs \
          (registry benchmarks and/or fuzz seeds) through meld + check + \
          simulate on the domain pool, backed by a content-addressed \
          on-disk result cache.  Results are one JSON line per entry, in \
          manifest order and byte-identical at any --jobs count; a warm \
          cache replays stored bytes verbatim.  Appends a throughput \
          record (cache hit-rate, kernels/sec, p99 pass_ms) to the bench \
          history for the bench-diff sentinel.  --events and --snapshot \
          add live telemetry (see doc/observability.md); darm_opt top \
          renders it.  Exits non-zero on incorrect kernels, and with \
          --fail-on-error also on errored or checker-rejected specs.")
    Term.(
      const run $ manifest_arg $ out_arg $ jobs_arg $ budget $ cache_dir_arg
      $ no_cache $ clear_cache $ history_path_arg $ no_history
      $ metrics_out $ gen_fuzz_arg $ seed_start
      $ gen_block_size $ profile $ gen_features $ gen_inject $ events_arg
      $ snapshot_arg $ cadence_arg $ stall_arg $ fail_on_error)

let top_cmd =
  let module MR = Darm_obs.Metrics_registry in
  let module Snapshot = Darm_obs.Snapshot in
  let module T = Darm_obs.Trace in
  let snapshot_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"BASE"
          ~doc:
            "Snapshot base path of the batch run under observation \
             (reads $(docv).json, the darm-metrics-v1 rendering).")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Also tail the run's --events journal (last few \
                events at the bottom of the view).")
  in
  let once_flag =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render one frame and exit (exit 2 when the snapshot \
                   is missing or invalid) instead of following the run.")
  in
  let interval_arg =
    Arg.(value & opt float 1.0 & info [ "interval-s" ] ~docv:"S"
           ~doc:"Refresh interval in follow mode.")
  in
  let gauge fams ?labels name =
    Option.map (fun s -> s.MR.s_value) (MR.find_series fams ?labels name)
  in
  let g0 fams name = Option.value ~default:0. (gauge fams name) in
  let render buf fams events =
    let bpf fmt = Printf.bprintf buf fmt in
    let total = g0 fams "darm_batch_total" in
    let done_ = g0 fams "darm_batch_done" in
    let pct = if total > 0. then 100. *. done_ /. total else 0. in
    bpf "darm batch — done %.0f/%.0f (%.1f%%)  health %.2f  wall %.1fs\n"
      done_ total pct (g0 fams "darm_run_health")
      (g0 fams "darm_batch_wall_seconds");
    let kps = g0 fams "darm_batch_kernels_per_sec" in
    let eta =
      if kps > 0. && total > done_ then
        Printf.sprintf "%.1fs" ((total -. done_) /. kps)
      else "-"
    in
    bpf "throughput %.1f kernels/s   ETA %s   cache %.0f hit(s) / %.0f \
         miss(es), hit-rate %.1f%%\n"
      kps eta
      (g0 fams "darm_batch_cache_hits_total")
      (g0 fams "darm_batch_cache_misses_total")
      (100. *. g0 fams "darm_batch_cache_hit_rate");
    bpf "status ok=%.0f incorrect=%.0f check-failed=%.0f errors=%.0f\n"
      (done_ -. g0 fams "darm_batch_incorrect_total"
      -. g0 fams "darm_batch_check_failed_total"
      -. g0 fams "darm_batch_errors_total")
      (g0 fams "darm_batch_incorrect_total")
      (g0 fams "darm_batch_check_failed_total")
      (g0 fams "darm_batch_errors_total");
    bpf "latency (ms)          p50       p90       p99     count\n";
    let lat_row label name =
      match MR.find_series fams name with
      | None -> ()
      | Some s ->
          let cell q =
            match MR.percentile s q with
            | Some v -> Printf.sprintf "%9.3f" v
            | None -> Printf.sprintf "%9s" "-"
          in
          bpf "  %-14s%s %s %s  %8d\n" label (cell 0.5) (cell 0.9)
            (cell 0.99) s.MR.s_count
    in
    lat_row "pass" "darm_batch_pass_ms";
    lat_row "sim" "darm_batch_sim_ms";
    lat_row "cache lookup" "darm_batch_cache_lookup_ms";
    lat_row "spec" "darm_batch_spec_ms";
    (match MR.find_series fams "darm_worker_state" with
    | None -> ()
    | Some _ ->
        let fam =
          List.find_opt (fun f -> f.MR.f_name = "darm_worker_state") fams
        in
        let series = match fam with Some f -> f.MR.f_series | None -> [] in
        let state_name v =
          if v >= 2. then "stalled" else if v >= 1. then "busy" else "idle"
        in
        let row s =
          let w =
            match List.assoc_opt "worker" s.MR.s_labels with
            | Some w -> w
            | None -> "?"
          in
          let beats =
            Option.value ~default:0.
              (gauge fams
                 ~labels:[ ("worker", w) ]
                 "darm_worker_heartbeats_total")
          in
          Printf.sprintf "%s:%s(%.0f)" w (state_name s.MR.s_value) beats
        in
        let sorted =
          List.sort
            (fun a b ->
              let num s =
                match List.assoc_opt "worker" s.MR.s_labels with
                | Some w -> ( try int_of_string w with _ -> max_int)
                | None -> max_int
              in
              compare (num a) (num b))
            series
        in
        bpf "workers: %s\n" (String.concat " " (List.map row sorted)));
    (match events with
    | None -> ()
    | Some evs ->
        let tail =
          let n = List.length evs in
          if n <= 6 then evs
          else List.filteri (fun i _ -> i >= n - 6) evs
        in
        let one (ev : T.event) =
          let arg key =
            match List.assoc_opt key ev.ev_args with
            | Some (T.Int i) -> Printf.sprintf " %s=%d" key i
            | _ -> ""
          in
          let extra =
            match ev.ev_name with
            | "spec_finish" -> arg "spec"
            | "chunk_start" | "chunk_finish" -> arg "chunk"
            | _ -> ""
          in
          Printf.sprintf "ts=%d %s%s" ev.ev_ts ev.ev_name extra
        in
        bpf "events: %s\n" (String.concat " | " (List.map one tail)))
  in
  let read_events = function
    | None -> None
    | Some path ->
        Result.to_option
          (Result.bind (Darm_obs.Fsio.read path)
             (Export.events_of_jsonl ~name:path))
  in
  let run base events once interval_s =
    let path = Snapshot.json_path base in
    let frame () =
      match Snapshot.read_json ~path with
      | Error msg -> Error msg
      | Ok fams ->
          let buf = Buffer.create 1024 in
          render buf fams (read_events events);
          Ok (buf, fams)
    in
    if once then (
      match frame () with
      | Error msg ->
          Printf.eprintf "top: %s\n" msg;
          exit 2
      | Ok (buf, _) -> print_string (Buffer.contents buf))
    else
      let interval = Float.max 0.1 interval_s in
      let rec loop () =
        (match frame () with
        | Error msg ->
            print_string "\027[2J\027[H";
            Printf.printf "top: waiting for %s (%s)\n" path msg;
            flush stdout
        | Ok (buf, fams) ->
            print_string "\027[2J\027[H";
            print_string (Buffer.contents buf);
            flush stdout;
            let total = g0 fams "darm_batch_total" in
            if total > 0. && g0 fams "darm_batch_done" >= total then exit 0);
        Unix.sleepf interval;
        loop ()
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live health view of a darm_opt batch run, rendered from its \
          --snapshot files (and optionally its --events stream): \
          progress, kernels/s, ETA, cache hit-rate, per-spec latency \
          percentiles (p50/p90/p99), per-worker state and heartbeats.  \
          Follows the run until it completes; --once renders a single \
          frame for scripts and CI.")
    Term.(const run $ snapshot_arg $ events_arg $ once_flag $ interval_arg)

let events_cmd =
  let module B = Darm_fuzz.Batch in
  let module T = Darm_obs.Trace in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Journal written by darm_opt batch --events.")
  in
  let validate_flag =
    Arg.(value & flag
         & info [ "validate-only" ]
             ~doc:"Only validate the journal (every line a trace event, \
                   every name in the batch catalogue, strictly increasing \
                   ts); print the event count and exit, non-zero when \
                   invalid.")
  in
  let canonical_flag =
    Arg.(value & flag
         & info [ "canonical" ]
             ~doc:"Print the canonical form — worker-track events dropped, \
                   rt envelopes dropped, ts renumbered — the \
                   byte-comparable artifact of the determinism contract \
                   (doc/fleet.md).")
  in
  let ev_filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "ev" ] ~docv:"TYPE"
          ~doc:"Only print events of this type (e.g. spec_finish).")
  in
  let run file validate canonical ev_filter =
    let fail msg =
      Printf.eprintf "events: %s\n" msg;
      exit 2
    in
    let evs =
      match
        Result.bind (Darm_obs.Fsio.read file)
          (Export.events_of_jsonl ~name:file)
      with
      | Ok evs -> evs
      | Error msg -> fail msg
    in
    (match B.validate_journal evs with
    | Ok () -> ()
    | Error msg -> fail (Printf.sprintf "%s: %s" file msg));
    if validate then
      Printf.printf "events: %s: %d valid batch journal event(s)\n" file
        (List.length evs)
    else if canonical then
      print_string (Export.to_jsonl (B.canonical_journal evs))
    else
      let scalar = function
        | T.Str s -> s
        | T.Int i -> string_of_int i
        | T.Float f -> Darm_obs.Json.float_repr f
        | T.Bool b -> string_of_bool b
      in
      let fields kvs =
        List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (scalar v)) kvs
      in
      List.iter
        (fun (ev : T.event) ->
          if ev_filter = None || ev_filter = Some ev.ev_name then
            Printf.printf "ts=%-4d %-14s %s%s\n" ev.ev_ts ev.ev_name
              (String.concat " " (fields ev.ev_args))
              (if ev.ev_rt = [] then ""
               else
                 Printf.sprintf "  [rt %s]"
                   (String.concat " " (fields ev.ev_rt))))
        evs
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:
         "Inspect the journal written by darm_opt batch --events: \
          pretty-print it (optionally filtered by event type), validate \
          it, or emit its canonical byte-comparable form for determinism \
          checks.")
    Term.(const run $ file_arg $ validate_flag $ canonical_flag $ ev_filter)

let bench_diff_cmd =
  let module History = Darm_harness.History in
  let history_arg =
    let doc = "Candidate history file (JSONL, darm-bench-hist-v2); the \
               candidate is its last record." in
    Arg.(
      value
      & opt string History.default_path
      & info [ "history" ] ~docv:"FILE" ~doc)
  in
  let baseline_arg =
    let doc =
      "Baseline history file; the baseline is its last record.  Default: \
       the candidate file itself, using its second-to-last record."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline-history" ] ~docv:"FILE" ~doc)
  in
  let validate_flag =
    Arg.(
      value & flag
      & info [ "validate-only" ]
          ~doc:
            "Only load and schema-check the history file; print the record \
             count and exit (non-zero on a corrupt or missing history).")
  in
  let tol name default doc =
    Arg.(value & opt float default & info [ name ] ~docv:"X" ~doc)
  in
  let geomean_tol =
    tol "geomean-tol" History.default_thresholds.History.max_geomean_drop
      "Relative geomean-speedup drop that counts as a regression."
  in
  let cycles_tol =
    tol "cycles-tol" History.default_thresholds.History.max_cycle_growth
      "Per-point relative opt_cycles growth that counts as a regression."
  in
  let pass_ms_factor =
    tol "pass-ms-factor" History.default_thresholds.History.pass_ms_factor
      "pass_ms beyond FACTOR * baseline + SLACK is a regression."
  in
  let pass_ms_slack =
    tol "pass-ms-slack" History.default_thresholds.History.pass_ms_slack
      "Absolute pass_ms slack in milliseconds."
  in
  let kps_ratio =
    tol "kps-ratio" History.default_thresholds.History.min_kps_ratio
      "Batch throughput (kernels/sec) below RATIO * baseline is a \
       regression; applies when both records carry batch stats."
  in
  let load_or_die path =
    match History.load ~path () with
    | Ok records -> records
    | Error msg ->
        Printf.eprintf "bench-diff: %s\n" msg;
        exit 2
  in
  let run history baseline validate gt ct pf ps kr =
    let cand_records = load_or_die history in
    if validate then begin
      Printf.printf "bench-diff: %s: %d valid %s record(s)\n" history
        (List.length cand_records) History.schema;
      if cand_records = [] then exit 2
    end
    else begin
      let last l = List.nth l (List.length l - 1) in
      let candidate =
        match cand_records with
        | [] ->
            Printf.eprintf "bench-diff: %s holds no records\n" history;
            exit 2
        | rs -> last rs
      in
      let baseline =
        match baseline with
        | Some path -> (
            match load_or_die path with
            | [] ->
                Printf.eprintf "bench-diff: %s holds no records\n" path;
                exit 2
            | rs -> last rs)
        | None -> (
            match cand_records with
            | _ :: _ :: _ ->
                List.nth cand_records (List.length cand_records - 2)
            | _ ->
                Printf.eprintf
                  "bench-diff: %s holds fewer than two records and no \
                   --baseline-history was given\n"
                  history;
                exit 2)
      in
      let thresholds =
        {
          History.max_geomean_drop = gt;
          max_cycle_growth = ct;
          pass_ms_factor = pf;
          pass_ms_slack = ps;
          min_kps_ratio = kr;
        }
      in
      let d = History.diff ~thresholds ~baseline candidate in
      print_string (History.diff_to_text d);
      if not (History.diff_ok d) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Regression sentinel: compare the last record of a bench history \
          (BENCH_history.jsonl) against the previous one — or against the \
          last record of a separate baseline history — under configurable \
          noise thresholds.  Speedups and geomeans are recomputed from the \
          stored cycle counts.  Exits non-zero on any regression.")
    Term.(
      const run $ history_arg $ baseline_arg $ validate_flag $ geomean_tol
      $ cycles_tol $ pass_ms_factor $ pass_ms_slack $ kps_ratio)

let main =
  let info =
    Cmd.info "darm_opt" ~version:"1.0"
      ~doc:
        "DARM control-flow melding: analyses, transformations and SIMT \
         simulation."
  in
  Cmd.group info
    [ list_cmd; show_cmd; divergence_cmd; meld_cmd; simulate_cmd; sweep_cmd;
      profile_cmd; parse_cmd;
      compile_cmd; dot_cmd; trace_cmd; check_cmd; fuzz_cmd; report_cmd;
      batch_cmd; top_cmd; events_cmd; bench_diff_cmd ]

let () = exit (Cmd.eval main)
