(* Observability subsystem (lib/obs + harness profiling): span
   balancing, serialization round-trips, Chrome schema, trace
   determinism across pool sizes, the zero-overhead guarantee, and the
   simulator's pinned timelines. *)

module Trace = Darm_obs.Trace
module Export = Darm_obs.Export
module Json = Darm_obs.Json
module Profile = Darm_harness.Profile
module E = Darm_harness.Experiment
module Registry = Darm_kernels.Registry
module Kernel = Darm_kernels.Kernel
module Sim = Darm_sim.Simulator

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
  match Export.events_of_jsonl ~name:"t" (Export.to_jsonl t) with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok evs ->
      Alcotest.(check bool) "same events" true (evs = Trace.events t)

(* the envelope rides after [args] and reads back as it was written;
   a buffer streaming through [jsonl_sink] writes the same line and
   keeps no event *)
let test_jsonl_envelope_round_trip () =
  let emit t =
    Trace.instant t ~cat:"batch" ~tid:2
      ~args:[ ("spec", Trace.Int 3) ]
      ~rt:[ ("worker", Trace.Int 1); ("ms", Trace.Float 0.125) ]
      "spec_finish"
  in
  let t = Trace.create () in
  emit t;
  let doc = Export.to_jsonl t in
  Alcotest.(check string) "rt written last"
    "{\"name\":\"spec_finish\",\"cat\":\"batch\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":2,\"args\":{\"spec\":3},\"rt\":{\"worker\":1,\"ms\":0.125}}\n"
    doc;
  (match Export.events_of_jsonl ~name:"t" doc with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok evs -> Alcotest.(check bool) "same events" true (evs = Trace.events t));
  let path = Filename.temp_file "darm_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sink, close = Export.jsonl_sink ~path in
      let streamed = Trace.create ~sink () in
      emit streamed;
      close ();
      Alcotest.(check int) "sink keeps none" 0 (Trace.length streamed);
      Alcotest.(check string) "streamed line" doc
        (In_channel.with_open_bin path In_channel.input_all))

let test_jsonl_error_line () =
  let good = Export.to_jsonl (sample_trace ()) in
  let first = String.sub good 0 (String.index good '\n' + 1) in
  List.iter
    (fun bad ->
      match Export.events_of_jsonl ~name:"t" (first ^ bad ^ "\n") with
      | Ok _ -> Alcotest.failf "%s must be rejected" bad
      | Error msg ->
          Alcotest.(check string) "names line 2" "t:2:"
            (String.sub msg 0 (min 4 (String.length msg))))
    [ "{\"name\":"; "{\"name\":\"x\",\"ph\":\"i\"}" ]

(* pinned: an event with an empty envelope writes no [rt] key, so
   every trace without one keeps these bytes *)
let sample_jsonl =
  "{\"name\":\"span\",\"cat\":\"pass\",\"ph\":\"B\",\"ts\":0,\"pid\":3,\"tid\":7,\"args\":{\"s\":\"v\\\"\\\\\\n\",\"i\":-42,\"f\":1.5,\"b\":true}}\n\
   {\"name\":\"tick\",\"cat\":\"sim\",\"ph\":\"i\",\"ts\":99,\"pid\":0,\"tid\":0,\"args\":{}}\n\
   {\"name\":\"gauge\",\"cat\":\"sim\",\"ph\":\"C\",\"ts\":100,\"pid\":0,\"tid\":0,\"args\":{\"value\":2.25}}\n\
   {\"name\":\"span\",\"cat\":\"pass\",\"ph\":\"E\",\"ts\":101,\"pid\":3,\"tid\":7,\"args\":{}}\n"

let sample_chrome =
  "{\"traceEvents\":[{\"name\":\"span\",\"cat\":\"pass\",\"ph\":\"B\",\"ts\":0,\"pid\":3,\"tid\":7,\"args\":{\"s\":\"v\\\"\\\\\\n\",\"i\":-42,\"f\":1.5,\"b\":true}},\
   {\"name\":\"tick\",\"cat\":\"sim\",\"ph\":\"i\",\"ts\":99,\"pid\":0,\"tid\":0,\"args\":{}},\
   {\"name\":\"gauge\",\"cat\":\"sim\",\"ph\":\"C\",\"ts\":100,\"pid\":0,\"tid\":0,\"args\":{\"value\":2.25}},\
   {\"name\":\"span\",\"cat\":\"pass\",\"ph\":\"E\",\"ts\":101,\"pid\":3,\"tid\":7,\"args\":{}}],\
   \"displayTimeUnit\":\"ms\"}\n"

let test_sample_bytes () =
  Alcotest.(check string) "jsonl bytes" sample_jsonl
    (Export.to_jsonl (sample_trace ()));
  Alcotest.(check string) "chrome bytes" sample_chrome
    (Export.to_chrome (sample_trace ()))

let test_jsonl_rejects_incomplete () =
  match Export.events_of_jsonl ~name:"t" "{\"name\":\"x\",\"ph\":\"i\"}" with
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
     every statistic of both runs is the same with obs absent and
     present, under all four models *)
  let k = kernel "BIT" in
  let block_size = List.hd k.Kernel.block_sizes in
  List.iter
    (fun (name, mem_model, reconvergence) ->
      let _, observed =
        Profile.run_point ~n:128 ~mem_model ~reconvergence k ~block_size
      in
      let plain =
        E.run
          ~transform:(E.pass_transform "DARM" Darm_core.Pass.default_config)
          ~n:128 ~mem_model ~reconvergence k ~block_size
      in
      Alcotest.(check string) (name ^ " base stats")
        (Testlib.stats_digest plain.E.base)
        (Testlib.stats_digest observed.E.base);
      Alcotest.(check string) (name ^ " opt stats")
        (Testlib.stats_digest plain.E.opt)
        (Testlib.stats_digest observed.E.opt))
    Testlib.models

(* ------------------------------------------------------------------ *)
(* Simulator timelines, pinned: the MD5 prefix of the JSONL trace of one
   traced simulation per kernel, run and model — warp.diverge,
   warp.reconverge and warp.barrier instants, block spans and
   block.cycles counters, and under the hierarchical model the
   mem.inflight and mem.l1_hit_rate samples.  BIT and PCM at their
   first block size, n 512, seed 2022, base and after the DARM pass;
   recorded before the simulator's counters became sums of its
   per-branch and per-site records. *)

let golden_timelines =
  [
    (("BIT", "flat_stack", "base"), "0604781819475b74");
    (("BIT", "flat_stack", "darm"), "5a3249b132ab7f8b");
    (("BIT", "hier_stack", "base"), "e7d0848d0f9f4429");
    (("BIT", "hier_stack", "darm"), "91fc98e2d7de097d");
    (("BIT", "flat_its", "base"), "b69a70bfa99517fb");
    (("BIT", "flat_its", "darm"), "b27d799025edc2bb");
    (("BIT", "hier_its", "base"), "9d8098110a5f49fb");
    (("BIT", "hier_its", "darm"), "40309449eed5f4c7");
    (("PCM", "flat_stack", "base"), "09996456498c2c07");
    (("PCM", "flat_stack", "darm"), "390e3a534f04bf9c");
    (("PCM", "hier_stack", "base"), "981a27f424ffab3f");
    (("PCM", "hier_stack", "darm"), "728240a6af8051c5");
    (("PCM", "flat_its", "base"), "c181fe03b75a85dd");
    (("PCM", "flat_its", "darm"), "f5c724ce4cb3aba5");
    (("PCM", "hier_its", "base"), "f93aea32d34fae08");
    (("PCM", "hier_its", "darm"), "5fb5cbdbae51b426");
  ]

let timeline_digest (k : Kernel.t) ~darm mem_model reconvergence : string =
  let block_size = List.hd k.Kernel.block_sizes in
  let inst =
    k.Kernel.make ~seed:2022 ~block_size ~n:(min k.Kernel.default_n 512)
  in
  if darm then ignore (Darm_core.Pass.run inst.Kernel.func);
  let tr = Trace.create () in
  let config =
    { E.sim_config with Sim.mem_model; reconvergence; obs = Some tr }
  in
  ignore
    (Sim.run ~config inst.Kernel.func ~args:inst.Kernel.args
       ~global:inst.Kernel.global inst.Kernel.launch);
  String.sub (Digest.to_hex (Digest.string (Export.to_jsonl tr))) 0 16

let test_timelines_pinned () =
  let got =
    List.concat_map
      (fun tag ->
        List.concat_map
          (fun (name, mem_model, reconvergence) ->
            List.map
              (fun (run, darm) ->
                ( (tag, name, run),
                  timeline_digest (kernel tag) ~darm mem_model reconvergence
                ))
              [ ("base", false); ("darm", true) ])
          Testlib.models)
      [ "BIT"; "PCM" ]
  in
  Testlib.check_table ~what:"simulator timelines" golden_timelines got
    ~label:(fun (t, m, r) -> String.concat " " [ t; m; r ])
    ~record:(fun (t, m, r) d -> Printf.sprintf "((%S, %S, %S), %S);" t m r d)
    (fun label g v -> Alcotest.(check string) label g v)

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
        Alcotest.test_case "sim timelines: pinned, four models" `Quick
          test_timelines_pinned;
        Alcotest.test_case "write_file: self-validation" `Quick
          test_write_file_validates;
        Alcotest.test_case "jsonl + chrome: pinned bytes" `Quick
          test_sample_bytes;
        Alcotest.test_case "jsonl: envelope round-trip" `Quick
          test_jsonl_envelope_round_trip;
        Alcotest.test_case "jsonl: errors name the line" `Quick
          test_jsonl_error_line;
      ] );
  ]
