(* Fleet telemetry, stream side: the darm-events-v1 sink and its
   validation, the canonical form (runtime events dropped, rt stripped,
   vt renumbered) that makes the stream byte-comparable across pool
   sizes, and the batch driver's end-to-end emission — canonical
   identity at jobs 1/2/4, injected-bug manifests, and mid-run
   snapshots. *)

module Ev = Darm_obs.Events
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

(* a small emitted stream: 2 core events bracketed by runtime ones,
   every event carrying an rt envelope *)
let emit_sample path =
  let s = Ev.open_sink ~path in
  Ev.emit s ~ev:"run_start"
    ~rt:[ ("jobs", J.Int 4) ]
    [ ("total", J.Int 2) ];
  Ev.emit s ~ev:"worker_start" [ ("worker", J.Int 0) ];
  Ev.emit s ~ev:"spec_start"
    ~rt:[ ("wall_s", J.Float 0.5) ]
    [ ("spec", J.Int 0) ];
  Ev.emit s ~ev:"worker_finish" [ ("worker", J.Int 0) ];
  Alcotest.(check int) "count" 4 (Ev.count s);
  Ev.close s

(* ------------------------------------------------------------------ *)
(* Sink, read, validate *)

let test_emit_read_validate () =
  let path = Filename.concat (temp_dir ()) "ev.jsonl" in
  emit_sample path;
  let text = read_file path in
  (match Ev.validate text with
  | Ok n -> Alcotest.(check int) "validates" 4 n
  | Error msg -> Alcotest.failf "valid stream rejected: %s" msg);
  match Ev.read text with
  | Error msg -> Alcotest.failf "read failed: %s" msg
  | Ok views ->
      Alcotest.(check (list int)) "vt sequence" [ 0; 1; 2; 3 ]
        (List.map (fun v -> v.Ev.vw_vt) views);
      Alcotest.(check (list string)) "event order"
        [ "run_start"; "worker_start"; "spec_start"; "worker_finish" ]
        (List.map (fun v -> v.Ev.vw_ev) views);
      (* every line self-describes its schema *)
      List.iter
        (fun v ->
          Alcotest.(check bool) "schema stamped" true
            (J.member "schema" v.Ev.vw_json = Some (J.Str Ev.schema)))
        views

let test_emit_rejects_unknown_event () =
  let path = Filename.concat (temp_dir ()) "ev.jsonl" in
  let s = Ev.open_sink ~path in
  (match Ev.emit s ~ev:"bogus_event" [] with
  | () -> Alcotest.fail "unknown event type must be rejected"
  | exception Invalid_argument _ -> ());
  (match Ev.emit s ~ev:"run_start" [ ("vt", J.Int 0) ] with
  | () -> Alcotest.fail "reserved field name must be rejected"
  | exception Invalid_argument _ -> ());
  (* the sink survives the rejections *)
  Ev.emit s ~ev:"run_start" [];
  Alcotest.(check int) "only the valid emit counted" 1 (Ev.count s);
  Ev.close s

let test_validate_catches_damage () =
  let expect_error label text =
    match Ev.validate text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" label
  in
  let line ?(schema = Ev.schema) ?(ev = "run_start") vt =
    Printf.sprintf "{\"schema\":%s,\"vt\":%d,\"ev\":%s}\n"
      (J.to_string (J.Str schema))
      vt
      (J.to_string (J.Str ev))
  in
  expect_error "wrong schema" (line ~schema:"darm-events-v999" 0);
  expect_error "unknown event" (line ~ev:"bogus" 0);
  expect_error "vt going backwards" (line 0 ^ line 0);
  expect_error "non-object line" "[1,2,3]\n";
  expect_error "rt not an object"
    "{\"schema\":\"darm-events-v1\",\"vt\":0,\"ev\":\"run_start\",\"rt\":3}\n"

let test_canonicalize () =
  let path = Filename.concat (temp_dir ()) "ev.jsonl" in
  emit_sample path;
  match Ev.canonicalize (read_file path) with
  | Error msg -> Alcotest.failf "canonicalize failed: %s" msg
  | Ok canon -> (
      Alcotest.(check bool) "runtime events dropped" false
        (contains canon "worker_start" || contains canon "worker_finish");
      Alcotest.(check bool) "rt envelopes stripped" false
        (contains canon "\"rt\"");
      match Ev.read canon with
      | Error msg -> Alcotest.failf "canonical form unreadable: %s" msg
      | Ok views ->
          Alcotest.(check (list int)) "vt renumbered" [ 0; 1 ]
            (List.map (fun v -> v.Ev.vw_vt) views);
          Alcotest.(check (list string)) "core order preserved"
            [ "run_start"; "spec_start" ]
            (List.map (fun v -> v.Ev.vw_ev) views);
          (* canonicalizing a canonical stream is the identity *)
          Alcotest.(check string) "idempotent" canon
            (match Ev.canonicalize canon with
            | Ok c -> c
            | Error msg -> Alcotest.failf "re-canonicalize: %s" msg))

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
    let text = run_with_events dir jobs in
    (match Ev.validate text with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "jobs=%d stream invalid: %s" jobs msg);
    match Ev.canonicalize text with
    | Ok c -> c
    | Error msg -> Alcotest.failf "jobs=%d canonicalize: %s" jobs msg
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
        Alcotest.test_case "unknown events and reserved fields rejected"
          `Quick test_emit_rejects_unknown_event;
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
