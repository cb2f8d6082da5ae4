(* Observability subsystem (lib/obs + harness profiling): span
   balancing, serialization round-trips, Chrome schema, trace
   determinism across pool sizes, and the zero-overhead guarantee. *)

module Trace = Darm_obs.Trace
module Export = Darm_obs.Export
module Json = Darm_obs.Json
module Profile = Darm_harness.Profile
module E = Darm_harness.Experiment
module Registry = Darm_kernels.Registry
module Kernel = Darm_kernels.Kernel

let qcheck t = QCheck_alcotest.to_alcotest t

let kernel tag =
  match Registry.find tag with
  | Some k -> k
  | None -> Alcotest.failf "kernel %s not registered" tag

(* ------------------------------------------------------------------ *)
(* Span structure *)

(* random well-nested span tree: with_span can only produce balanced
   buffers, whatever the shape *)
let test_with_span_balanced_prop =
  let gen =
    QCheck2.Gen.(list_size (0 -- 40) (pair (0 -- 3) (0 -- 2)))
  in
  qcheck
    (QCheck2.Test.make ~count:200 ~name:"with_span always balances" gen
       (fun shape ->
         let t = Trace.create () in
         let rec emit depth rest =
           match rest with
           | [] -> []
           | (tid, width) :: tl ->
               if depth > 4 || width = 0 then begin
                 Trace.instant t ~tid "leaf";
                 emit depth tl
               end
               else
                 Trace.with_span t ~tid
                   (Printf.sprintf "s%d" depth)
                   (fun () -> emit (depth + 1) tl)
         in
         ignore (emit 0 shape);
         Trace.balanced t))

let test_balanced_detects_open_span () =
  let t = Trace.create () in
  Trace.begin_span t "open";
  Alcotest.(check bool) "unclosed" false (Trace.balanced t);
  Trace.end_span t "open";
  Alcotest.(check bool) "closed" true (Trace.balanced t)

let test_balanced_is_per_track () =
  (* interleaved spans on different (pid, tid) tracks must not be
     mistaken for bad nesting *)
  let t = Trace.create () in
  Trace.begin_span t ~tid:1 "a";
  Trace.begin_span t ~tid:2 "b";
  Trace.end_span t ~tid:1 "a";
  Trace.end_span t ~tid:2 "b";
  Alcotest.(check bool) "balanced" true (Trace.balanced t)

let test_with_span_balances_on_raise () =
  let t = Trace.create () in
  (try Trace.with_span t "boom" (fun () -> failwith "x") with
  | Failure _ -> ());
  Alcotest.(check bool) "end emitted on raise" true (Trace.balanced t)

let test_clock_monotone () =
  let t = Trace.create () in
  Trace.instant t ~ts:100 "late";
  Trace.instant t "auto";
  (* an explicit ts behind the clock must not run it backwards *)
  Trace.instant t ~ts:5 "early";
  let ts = List.map (fun e -> e.Trace.ev_ts) (Trace.events t) in
  Alcotest.(check (list int)) "never backwards" [ 100; 101; 102 ] ts

let test_merge_order_and_shift () =
  let mk name =
    let t = Trace.create () in
    Trace.instant t name;
    t
  in
  let a = mk "a" and b = mk "b" in
  Trace.shift_pid b 1000;
  let m = Trace.merge [ a; b ] in
  let names = List.map (fun e -> e.Trace.ev_name) (Trace.events m) in
  let pids = List.map (fun e -> e.Trace.ev_pid) (Trace.events m) in
  Alcotest.(check (list string)) "list order" [ "a"; "b" ] names;
  Alcotest.(check (list int)) "pid namespaces" [ 0; 1000 ] pids

(* ------------------------------------------------------------------ *)
(* Serialization *)

(* one buffer exercising every phase and every attribute type *)
let sample_trace () =
  let t = Trace.create () in
  Trace.begin_span t ~cat:"pass" ~pid:3 ~tid:7
    ~args:
      [
        ("s", Trace.Str "v\"\\\n");
        ("i", Trace.Int (-42));
        ("f", Trace.Float 1.5);
        ("b", Trace.Bool true);
      ]
    "span";
  Trace.instant t ~cat:"sim" ~ts:99 "tick";
  Trace.counter t ~cat:"sim" "gauge" 2.25;
  Trace.end_span t ~cat:"pass" ~pid:3 ~tid:7 "span";
  t

let test_jsonl_round_trip () =
  let t = sample_trace () in
  match Export.events_of_jsonl (Export.to_jsonl t) with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok evs ->
      Alcotest.(check bool) "same events" true (evs = Trace.events t)

let test_jsonl_rejects_incomplete () =
  match Export.events_of_jsonl "{\"name\":\"x\",\"ph\":\"i\"}" with
  | Ok _ -> Alcotest.fail "event without ts/pid/tid must be rejected"
  | Error _ -> ()

(* \u escapes take exactly four hex digits; anything else is an Error,
   never an exception *)
let test_json_unicode_escapes () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Ok _ -> Alcotest.failf "%s must be rejected" doc
      | Error _ -> ())
    [ {|{"a":"\uZZZZ"}|}; {|{"a":"\u12"}|}; {|{"a":"\u1_23"}|};
      {|{"a":"\u+123"}|} ];
  match Json.parse {|{"a":"\u00e9\u00C9"}|} with
  | Ok j ->
      Alcotest.(check bool) "decoded as UTF-8" true
        (Json.member "a" j = Some (Json.Str "\xc3\xa9\xc3\x89"))
  | Error e -> Alcotest.failf "valid escape rejected: %s" e

let required_fields = [ "name"; "ph"; "ts"; "pid"; "tid" ]

let check_chrome_schema (doc : string) : int =
  match Json.parse doc with
  | Error msg -> Alcotest.failf "chrome trace does not parse: %s" msg
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          List.iter
            (fun ev ->
              List.iter
                (fun field ->
                  if Json.member field ev = None then
                    Alcotest.failf "event missing %S: %s" field
                      (Json.to_string ev))
                required_fields)
            evs;
          List.length evs
      | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_schema () =
  let n = check_chrome_schema (Export.to_chrome (sample_trace ())) in
  Alcotest.(check int) "all events exported" 4 n

(* ------------------------------------------------------------------ *)
(* End-to-end profiling *)

let profile_point () =
  let k = kernel "BIT" in
  Profile.run_point ~n:128 k ~block_size:(List.hd k.Kernel.block_sizes)

let has_event ?arg name tr =
  List.exists
    (fun e ->
      e.Trace.ev_name = name
      &&
      match arg with
      | None -> true
      | Some a -> List.mem_assoc a e.Trace.ev_args)
    (Trace.events tr)

let test_profile_point_events () =
  let tr, r = profile_point () in
  Alcotest.(check bool) "correct" true r.E.correct;
  Alcotest.(check bool) "balanced" true (Trace.balanced tr);
  List.iter
    (fun (name, arg) ->
      Alcotest.(check bool)
        (Printf.sprintf "has %s" name)
        true
        (has_event ?arg name tr))
    [
      ("pass.run", None);
      ("pass.iteration", Some "iteration");
      (* every meld decision carries the profitability score *)
      ("meld.decision", Some "fp_s");
      ("meld.apply", None);
      ("warp.diverge", Some "t_mask");
      ("warp.reconverge", None);
      ("block", None);
      ("experiment", None);
    ]

let test_profile_pid_tracks () =
  let tr, _ = profile_point () in
  let pids =
    List.sort_uniq compare
      (List.map (fun e -> e.Trace.ev_pid) (Trace.events tr))
  in
  (* pid 0 = pass/harness, 1 = baseline sim, 2 = optimized sim *)
  Alcotest.(check (list int)) "tracks" [ 0; 1; 2 ] pids

let test_sweep_deterministic_across_jobs () =
  let k = kernel "SB1" in
  let doc jobs =
    let tr, _ = Profile.sweep ~jobs ~n:128 k in
    Export.to_jsonl tr
  in
  let reference = doc 1 in
  Alcotest.(check bool) "non-trivial" true (String.length reference > 1000);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d bytes" jobs)
        reference (doc jobs))
    [ 2; 4 ]

let test_sweep_chrome_valid () =
  let tr, _ = Profile.sweep ~jobs:2 ~n:128 (kernel "SB1") in
  let n = check_chrome_schema (Export.to_chrome tr) in
  Alcotest.(check bool) "non-trivial" true (n = Trace.length tr && n > 50)

let test_zero_overhead () =
  (* with no buffer installed the observed computation is bit-identical:
     same cycle counts with obs absent and present *)
  let k = kernel "BIT" in
  let block_size = List.hd k.Kernel.block_sizes in
  let _, observed = Profile.run_point ~n:128 k ~block_size in
  let plain =
    E.run
      ~transform:(E.pass_transform "DARM" Darm_core.Pass.default_config)
      ~n:128 k ~block_size
  in
  Alcotest.(check int) "base cycles" plain.E.base.Darm_sim.Metrics.cycles
    observed.E.base.Darm_sim.Metrics.cycles;
  Alcotest.(check int) "opt cycles" plain.E.opt.Darm_sim.Metrics.cycles
    observed.E.opt.Darm_sim.Metrics.cycles;
  Alcotest.(check int) "divergent branches"
    plain.E.opt.Darm_sim.Metrics.divergent_branches
    observed.E.opt.Darm_sim.Metrics.divergent_branches

let test_write_file_validates () =
  let path = Filename.temp_file "darm_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Export.write_file ~format:Export.Chrome ~path (sample_trace ());
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let doc = really_input_string ic len in
      close_in ic;
      ignore (check_chrome_schema doc);
      (* an empty buffer must fail validation instead of writing an
         unloadable file *)
      match Export.write_file ~format:Export.Chrome ~path (Trace.create ())
      with
      | () -> Alcotest.fail "empty trace must be rejected"
      | exception Failure _ -> ())

(* ------------------------------------------------------------------ *)
(* Counter events across pid tracks: sweep tasks get disjoint pid
   namespaces (Profile.pid_stride apart), and the Chrome export must
   keep each counter sample on its own track with its value intact. *)

let test_chrome_counter_tracks () =
  let stride = Profile.pid_stride in
  let pids = [ 0; stride; 2 * stride ] in
  let tr =
    Trace.merge
      (List.map
         (fun pid ->
           let t = Trace.create () in
           Trace.counter t ~cat:"sim" "block.cycles" (float_of_int (pid + 7));
           Trace.shift_pid t pid;
           t)
         pids)
  in
  let doc = Export.to_chrome tr in
  ignore (check_chrome_schema doc);
  let evs =
    match Json.parse doc with
    | Ok j -> (
        match Json.member "traceEvents" j with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents")
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  let counters =
    List.filter (fun e -> Json.member "ph" e = Some (Json.Str "C")) evs
  in
  Alcotest.(check int) "one counter per track" (List.length pids)
    (List.length counters);
  let got_pids =
    List.filter_map (fun e ->
        match Json.member "pid" e with Some (Json.Int p) -> Some p | _ -> None)
      counters
    |> List.sort compare
  in
  Alcotest.(check (list int)) "pid namespaces preserved" pids got_pids;
  (* each sample's value must ride in args under the "value" key
     (the Trace.counter convention; Perfetto plots one series per
     args key, so every counter here is a single-series track) *)
  List.iter
    (fun e ->
      let pid =
        match Json.member "pid" e with Some (Json.Int p) -> p | _ -> -1
      in
      match Json.member "args" e with
      | Some args -> (
          match Json.member "value" args with
          | Some (Json.Float v) ->
              Alcotest.(check (float 0.0)) "counter value"
                (float_of_int (pid + 7))
                v
          | Some (Json.Int v) ->
              Alcotest.(check int) "counter value" (pid + 7) v
          | _ -> Alcotest.fail "counter args missing sample value")
      | None -> Alcotest.fail "counter event without args")
    counters

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "balanced: open span detected" `Quick
          test_balanced_detects_open_span;
        Alcotest.test_case "balanced: per-track" `Quick
          test_balanced_is_per_track;
        Alcotest.test_case "with_span: balances on raise" `Quick
          test_with_span_balances_on_raise;
        Alcotest.test_case "clock: monotone" `Quick test_clock_monotone;
        Alcotest.test_case "merge: order + pid shift" `Quick
          test_merge_order_and_shift;
        test_with_span_balanced_prop;
        Alcotest.test_case "jsonl: round-trip" `Quick test_jsonl_round_trip;
        Alcotest.test_case "jsonl: rejects incomplete events" `Quick
          test_jsonl_rejects_incomplete;
        Alcotest.test_case "json: malformed \\u escapes are errors" `Quick
          test_json_unicode_escapes;
        Alcotest.test_case "chrome: schema" `Quick test_chrome_schema;
        Alcotest.test_case "chrome: counter events across pid tracks" `Quick
          test_chrome_counter_tracks;
        Alcotest.test_case "profile: pass + sim events present" `Quick
          test_profile_point_events;
        Alcotest.test_case "profile: pid track conventions" `Quick
          test_profile_pid_tracks;
        Alcotest.test_case "profile: deterministic across jobs" `Quick
          test_sweep_deterministic_across_jobs;
        Alcotest.test_case "profile: sweep chrome valid" `Quick
          test_sweep_chrome_valid;
        Alcotest.test_case "zero overhead: metrics unchanged" `Quick
          test_zero_overhead;
        Alcotest.test_case "write_file: self-validation" `Quick
          test_write_file_validates;
      ] );
  ]
