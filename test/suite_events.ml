(* Fleet telemetry, stream side: the batch journal (a JSONL trace of
   [batch] instants) and its validation, the canonical form (worker
   tracks dropped, rt envelopes dropped, ts renumbered) that makes the
   journal byte-comparable across pool sizes, and the batch driver's
   end-to-end emission — canonical identity at jobs 1/2/4,
   injected-bug manifests, and mid-run snapshots. *)

module T = Darm_obs.Trace
module Export = Darm_obs.Export
module Snapshot = Darm_obs.Snapshot
module MR = Darm_obs.Metrics_registry
module B = Darm_fuzz.Batch
module J = Darm_obs.Json

let contains (hay : string) (needle : string) : bool =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let temp_dir = Testlib.temp_dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the journal's reading: every line decodes, then the batch rules *)
let read_journal text =
  Result.bind (Export.events_of_jsonl ~name:"journal" text) (fun evs ->
      Result.map (fun () -> evs) (B.validate_journal evs))

(* a small streamed journal: 2 core events bracketed by worker-track
   ones, each core event carrying an rt envelope *)
let emit_sample path =
  let sink, close = Export.jsonl_sink ~path in
  let t = T.create ~sink () in
  T.instant t ~cat:"batch" ~args:[ ("total", T.Int 2) ]
    ~rt:[ ("jobs", T.Int 4) ] "run_start";
  T.instant t ~cat:"batch" ~tid:1 ~args:[ ("worker", T.Int 0) ]
    "worker_start";
  T.instant t ~cat:"batch" ~args:[ ("spec", T.Int 0) ]
    ~rt:[ ("wall_s", T.Float 0.5) ] "spec_start";
  T.instant t ~cat:"batch" ~tid:1 ~args:[ ("worker", T.Int 0) ]
    "worker_finish";
  close ()

(* ------------------------------------------------------------------ *)
(* Journal, read, validate *)

let test_emit_read_validate () =
  let path = Filename.concat (temp_dir ()) "ev.jsonl" in
  emit_sample path;
  match read_journal (read_file path) with
  | Error msg -> Alcotest.failf "valid journal rejected: %s" msg
  | Ok evs ->
      Alcotest.(check int) "validates" 4 (List.length evs);
      Alcotest.(check (list int)) "ts sequence" [ 0; 1; 2; 3 ]
        (List.map (fun (e : T.event) -> e.ev_ts) evs);
      Alcotest.(check (list string)) "event order"
        [ "run_start"; "worker_start"; "spec_start"; "worker_finish" ]
        (List.map (fun (e : T.event) -> e.ev_name) evs);
      Alcotest.(check (list int)) "tracks" [ 0; 1; 0; 1 ]
        (List.map (fun (e : T.event) -> e.ev_tid) evs);
      (* every line is a batch instant, envelope intact *)
      List.iter
        (fun (e : T.event) ->
          Alcotest.(check bool) "batch instant" true
            (e.ev_cat = "batch" && e.ev_ph = T.I))
        evs;
      Alcotest.(check bool) "rt read back" true
        ((List.hd evs).ev_rt = [ ("jobs", T.Int 4) ])

(* names outside the catalogue fail validation; a core field named
   like one of the event's own keys stays inside [args] *)
let test_unknown_events_rejected () =
  let t = T.create () in
  T.instant t ~cat:"batch" "bogus_event";
  (match B.validate_journal (T.events t) with
  | Ok () -> Alcotest.fail "unknown event type must be rejected"
  | Error msg ->
      Alcotest.(check bool) "error names the event" true
        (contains msg "bogus_event"));
  let t = T.create () in
  let args = [ ("ts", T.Int 7); ("rt", T.Int 3); ("name", T.Str "x") ] in
  T.instant t ~cat:"batch" ~args "run_start";
  match read_journal (Export.to_jsonl t) with
  | Error msg -> Alcotest.failf "journal rejected: %s" msg
  | Ok [ e ] ->
      Alcotest.(check string) "name" "run_start" e.ev_name;
      Alcotest.(check int) "ts" 0 e.ev_ts;
      Alcotest.(check bool) "args intact, no envelope" true
        (e.ev_args = args && e.ev_rt = [])
  | Ok _ -> Alcotest.fail "one event expected"

let test_validate_catches_damage () =
  let expect_error label text =
    match read_journal text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" label
  in
  let line ?(ev = "run_start") ?(rt = "") ts =
    Printf.sprintf
      "{\"name\":%s,\"cat\":\"batch\",\"ph\":\"i\",\"ts\":%d,\"pid\":0,\"tid\":0,\"args\":{}%s}\n"
      (J.to_string (J.Str ev))
      ts rt
  in
  (match read_journal (line 0 ^ line 1) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "undamaged journal rejected: %s" msg);
  expect_error "line without trace-event fields"
    "{\"vt\":0,\"ev\":\"run_start\"}\n";
  expect_error "unknown event" (line ~ev:"bogus" 0);
  expect_error "ts going backwards" (line 0 ^ line 0);
  expect_error "non-object line" "[1,2,3]\n";
  expect_error "rt not an object" (line ~rt:",\"rt\":3" 0)

let test_canonicalize () =
  let path = Filename.concat (temp_dir ()) "ev.jsonl" in
  emit_sample path;
  let canonical text =
    match read_journal text with
    | Ok evs -> Export.to_jsonl (B.canonical_journal evs)
    | Error msg -> Alcotest.failf "journal rejected: %s" msg
  in
  let canon = canonical (read_file path) in
  Alcotest.(check bool) "worker-track events dropped" false
    (contains canon "worker_start" || contains canon "worker_finish");
  Alcotest.(check bool) "rt envelopes stripped" false
    (contains canon "\"rt\"");
  match read_journal canon with
  | Error msg -> Alcotest.failf "canonical form unreadable: %s" msg
  | Ok evs ->
      Alcotest.(check (list int)) "ts renumbered" [ 0; 1 ]
        (List.map (fun (e : T.event) -> e.ev_ts) evs);
      Alcotest.(check (list string)) "core order preserved"
        [ "run_start"; "spec_start" ]
        (List.map (fun (e : T.event) -> e.ev_name) evs);
      (* canonicalizing a canonical journal is the identity *)
      Alcotest.(check string) "idempotent" canon (canonical canon)

(* ------------------------------------------------------------------ *)
(* Injected-bug specs *)

let fuzz_spec ?inject seed =
  B.Fuzz
    {
      fz_seed = seed;
      fz_block_size = 64;
      fz_smoke = true;
      fz_features = "all";
      fz_inject = inject;
    }

let test_inject_spec_round_trip () =
  let spec = fuzz_spec ~inject:"XBAR" 7 in
  (match B.spec_of_json (B.spec_to_json spec) with
  | Ok spec' -> Alcotest.(check bool) "round trips" true (spec = spec')
  | Error msg -> Alcotest.failf "round trip failed: %s" msg);
  Alcotest.(check bool) "inject field serialized" true
    (contains (J.to_string (B.spec_to_json spec)) "\"inject\":\"XBAR\"");
  let bad =
    J.Obj
      [
        ("kind", J.Str "fuzz"); ("seed", J.Int 0);
        ("block_size", J.Int 64); ("profile", J.Str "smoke");
        ("features", J.Str "all"); ("inject", J.Str "NOPE");
      ]
  in
  match B.spec_of_json bad with
  | Error msg ->
      Alcotest.(check bool) "error lists the known tags" true
        (contains msg "XBAR")
  | Ok _ -> Alcotest.fail "unknown inject tag must be rejected"

let test_injected_batch_check_fails () =
  let dir = temp_dir () in
  let out = Filename.concat dir "out.jsonl" in
  let sum =
    B.run ~jobs:1 ~out [ fuzz_spec ~inject:"XBAR" 0; fuzz_spec ~inject:"XBAR" 1 ]
  in
  (* a grafted bug is caught by the checker, not mis-simulated *)
  Alcotest.(check int) "all check-failed" 2 sum.B.bt_check_failed;
  Alcotest.(check int) "none incorrect" 0 sum.B.bt_incorrect;
  Alcotest.(check int) "none errored" 0 sum.B.bt_errors;
  Alcotest.(check (option (float 0.))) "nothing computed ok -> no p99" None
    sum.B.bt_pass_ms_p99

(* ------------------------------------------------------------------ *)
(* Batch emission end-to-end *)

let specs_under_test = List.init 6 (fun i -> fuzz_spec i)

let run_with_events dir jobs =
  let tag = string_of_int jobs in
  let events = Filename.concat dir ("ev" ^ tag ^ ".jsonl") in
  let out = Filename.concat dir ("out" ^ tag ^ ".jsonl") in
  let cache =
    (* fresh cache per run: all runs start equally cold, so their
       hit/miss event sequences match *)
    Darm_harness.Result_cache.create
      ~dir:(Filename.concat dir ("cache" ^ tag))
      ()
  in
  let sum = B.run ~jobs ~cache ~events ~out specs_under_test in
  Alcotest.(check int) "all processed" (List.length specs_under_test)
    sum.B.bt_run;
  read_file events

let test_batch_events_canonical_identity () =
  let dir = temp_dir () in
  let canon jobs =
    match read_journal (run_with_events dir jobs) with
    | Ok evs -> Export.to_jsonl (B.canonical_journal evs)
    | Error msg -> Alcotest.failf "jobs=%d journal invalid: %s" jobs msg
  in
  let c1 = canon 1 and c2 = canon 2 and c4 = canon 4 in
  Alcotest.(check string) "jobs 1 = jobs 2 (canonical bytes)" c1 c2;
  Alcotest.(check string) "jobs 1 = jobs 4 (canonical bytes)" c1 c4;
  (* the canonical stream still tells the whole core story *)
  List.iter
    (fun ev ->
      Alcotest.(check bool) (ev ^ " present") true (contains c1 ev))
    [
      "run_start"; "chunk_start"; "spec_start"; "cache_miss"; "spec_finish";
      "chunk_finish"; "run_finish";
    ]

let test_batch_snapshot_written_during_run () =
  let dir = temp_dir () in
  let base = Filename.concat dir "snap" in
  let out = Filename.concat dir "out.jsonl" in
  let reg = MR.create () in
  let sum =
    B.run ~jobs:2 ~registry:reg ~snapshot:base ~cadence_s:0.05 ~out
      specs_under_test
  in
  (* the monitor's first write is immediate, so even a fast run leaves
     valid files behind; the final write reflects the whole run *)
  (match Snapshot.read_json ~path:(Snapshot.json_path base) with
  | Error msg -> Alcotest.failf "snapshot unreadable: %s" msg
  | Ok fams -> (
      match MR.find_series fams "darm_batch_done" with
      | Some s ->
          Alcotest.(check (float 1e-9)) "final snapshot sees the whole run"
            (float_of_int sum.B.bt_run) s.MR.s_value
      | None -> Alcotest.fail "darm_batch_done missing from snapshot"));
  Alcotest.(check bool) "prom sibling written" true
    (Sys.file_exists (Snapshot.prom_path base));
  (* the live registry agrees with the summary *)
  Alcotest.(check (option (float 1e-9))) "registry kernel counter"
    (Some (float_of_int sum.B.bt_run))
    (MR.find reg "darm_batch_kernels_total");
  Alcotest.(check int) "no stalls in a healthy run" 0 sum.B.bt_stalled

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "events-stream",
      [
        Alcotest.test_case "emit/read/validate round trip" `Quick
          test_emit_read_validate;
        Alcotest.test_case "unknown events rejected, fields nest in args"
          `Quick test_unknown_events_rejected;
        Alcotest.test_case "validate catches damage" `Quick
          test_validate_catches_damage;
        Alcotest.test_case "canonical form (drop/strip/renumber)" `Quick
          test_canonicalize;
      ] );
    ( "events-batch",
      [
        Alcotest.test_case "inject spec round-trips" `Quick
          test_inject_spec_round_trip;
        Alcotest.test_case "injected bugs check-fail" `Slow
          test_injected_batch_check_fails;
        Alcotest.test_case "canonical byte-identity at jobs 1/2/4" `Slow
          test_batch_events_canonical_identity;
        Alcotest.test_case "snapshot written during the run" `Slow
          test_batch_snapshot_written_during_run;
      ] );
  ]
