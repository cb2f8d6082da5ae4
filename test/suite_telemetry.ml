(* Fleet telemetry, metric side: atomic snapshot files under a
   concurrent reader, the per-worker stall watchdog on a simulated
   clock, the result cache's own counters, and the p99 tail-latency
   gate of the bench-history sentinel (percentiles and the
   darm-metrics-v1 parser: suite_percentiles.ml). *)

module MR = Darm_obs.Metrics_registry
module Snapshot = Darm_obs.Snapshot
module Health = Darm_obs.Health
module Cache = Darm_harness.Result_cache
module History = Darm_harness.History
module J = Darm_obs.Json

let contains (hay : string) (needle : string) : bool =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let temp_dir = Testlib.temp_dir

let valid_payload =
  J.to_string
    (J.Obj [ ("schema", J.Str Cache.schema); ("x", J.Int 1) ])
  ^ "\n"

let write_raw path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Snapshot files *)

let test_snapshot_round_trip () =
  let base = Filename.concat (temp_dir ()) "snap" in
  let reg = MR.create () in
  MR.inc reg ~by:7. "darm_batch_kernels_total";
  MR.observe reg ~buckets:[ 1.; 10. ] "darm_batch_pass_ms" 3.;
  let fams = MR.snapshot reg in
  Snapshot.write ~base fams;
  (match Snapshot.read_json ~path:(Snapshot.json_path base) with
  | Error msg -> Alcotest.failf "json unreadable: %s" msg
  | Ok back -> Alcotest.(check bool) "json round trip" true (back = fams));
  let prom =
    In_channel.with_open_bin (Snapshot.prom_path base) In_channel.input_all
  in
  Alcotest.(check bool) "prom rendering present" true
    (contains prom "darm_batch_pass_ms_bucket")

let test_snapshot_read_missing_is_error () =
  match Snapshot.read_json ~path:"/nonexistent/snap.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing snapshot must be an Error"

(* an empty file reads as empty, not as a failure, and the raising
   variant carries the typed error's text *)
let test_fsio_read_empty_and_raising () =
  let module Fsio = Darm_obs.Fsio in
  let dir = temp_dir () in
  let path = Filename.concat dir "empty" in
  write_raw path "";
  Alcotest.(check (result string string)) "empty file" (Ok "") (Fsio.read path);
  match Fsio.read_file dir with
  | _ -> Alcotest.fail "read_file must raise on a directory"
  | exception Sys_error e ->
      Alcotest.(check string) "read_file raises read's message"
        (dir ^ ": is a directory") e

let test_snapshot_atomic_under_concurrent_reader () =
  (* a reader polling mid-rewrite must never observe a torn file: every
     successful open parses and schema-checks *)
  let base = Filename.concat (temp_dir ()) "snap" in
  let path = Snapshot.json_path base in
  let fams_at i =
    let reg = MR.create () in
    MR.set reg "darm_batch_done" (float_of_int i);
    (* bulk so each rewrite is a non-trivial file *)
    for w = 0 to 15 do
      MR.set reg ~labels:[ ("worker", string_of_int w) ] "darm_worker_state" 1.
    done;
    MR.snapshot reg
  in
  Snapshot.write ~base (fams_at 0);
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          (match Snapshot.read_json ~path with
          | Ok _ -> ()
          | Error _ -> Atomic.incr torn);
          incr n
        done;
        !n)
  in
  for i = 1 to 200 do
    Snapshot.write ~base (fams_at i)
  done;
  Atomic.set stop true;
  let reads = Domain.join reader in
  Alcotest.(check int) "no torn reads" 0 (Atomic.get torn);
  Alcotest.(check bool) "reader actually raced the writer" true (reads > 0)

(* ------------------------------------------------------------------ *)
(* Stall watchdog (simulated clock — Health never reads one itself) *)

let test_watchdog_flags_and_recovers () =
  let h = Health.create ~workers:2 ~deadline_s:10. in
  Health.set_busy h ~worker:0 ~now:0.;
  (* worker 1 stays idle throughout: never flagged *)
  Alcotest.(check (list int)) "inside deadline" [] (Health.check h ~now:5.);
  Alcotest.(check (list int)) "past deadline: newly stalled" [ 0 ]
    (Health.check h ~now:11.);
  Alcotest.(check bool) "state is Stalled" true
    (Health.state h ~worker:0 = Health.Stalled);
  Alcotest.(check (float 1e-9)) "health degrades" 0.5 (Health.health h);
  Alcotest.(check (list int)) "not re-reported" [] (Health.check h ~now:12.);
  Health.beat h ~worker:0 ~now:13.;
  Alcotest.(check bool) "beat recovers to Busy" true
    (Health.state h ~worker:0 = Health.Busy);
  Alcotest.(check (float 1e-9)) "health recovers" 1. (Health.health h);
  Alcotest.(check (list int)) "deadline re-armed by the beat" []
    (Health.check h ~now:20.);
  Alcotest.(check int) "incidents accumulate" 1 (Health.stalled_total h);
  Alcotest.(check int) "beats counted" 1 (Health.beats h ~worker:0)

let test_watchdog_idle_never_stalls () =
  let h = Health.create ~workers:3 ~deadline_s:0.1 in
  Alcotest.(check (list int)) "all idle, far future" []
    (Health.check h ~now:1e9);
  Health.set_busy h ~worker:1 ~now:0.;
  Health.set_idle h ~worker:1;
  Alcotest.(check (list int)) "returned to idle before deadline" []
    (Health.check h ~now:1e9);
  Alcotest.(check (float 1e-9)) "healthy" 1. (Health.health h)

let test_watchdog_rejects_degenerate_config () =
  (match Health.create ~workers:0 ~deadline_s:1. with
  | _ -> Alcotest.fail "workers=0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Health.create ~workers:1 ~deadline_s:0. with
  | _ -> Alcotest.fail "deadline=0 must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Result-cache counters *)

(* a lookup that accepts any payload carrying the cache's schema *)
let find c ~key = Option.map fst (Cache.find c ~key ~decode:Result.ok)

let test_cache_stats_count_lookups () =
  let c = Cache.create ~dir:(Filename.concat (temp_dir ()) "cache") () in
  let key = Cache.key c [ "stats" ] in
  ignore (find c ~key);
  Cache.store c ~key valid_payload;
  ignore (find c ~key);
  ignore (find c ~key);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.st_hits;
  Alcotest.(check int) "misses" 1 s.Cache.st_misses;
  Alcotest.(check int) "no evictions yet" 0 s.Cache.st_evictions;
  (* a truncated entry is a miss AND a poison eviction *)
  write_raw (Cache.entry_path c ~key)
    (String.sub valid_payload 0 (String.length valid_payload / 2));
  ignore (find c ~key);
  let s = Cache.stats c in
  Alcotest.(check int) "poison lookup is a miss" 2 s.Cache.st_misses;
  Alcotest.(check int) "poison eviction counted" 1 s.Cache.st_poison_evictions;
  Cache.store c ~key valid_payload;
  let removed = Cache.clear c in
  let s = Cache.stats c in
  Alcotest.(check int) "clear counts evictions" removed s.Cache.st_evictions

(* ------------------------------------------------------------------ *)
(* History p99 gate *)

let batch_stats ?pass_ms_p99 () =
  {
    History.b_kernels = 100;
    b_hits = 50;
    b_misses = 50;
    b_incorrect = 0;
    b_wall_s = 10.;
    b_pass_ms_p99 = pass_ms_p99;
  }

let record ?pass_ms_p99 () =
  History.of_batch ~jobs:4 ~time:0. (batch_stats ?pass_ms_p99 ())

let round_trip r =
  match History.record_of_json (History.record_to_json r) with
  | Ok r' -> r'
  | Error msg -> Alcotest.failf "record round trip: %s" msg

let test_history_p99_round_trips () =
  let some = round_trip (record ~pass_ms_p99:12.5 ()) in
  (match some.History.r_batch with
  | Some b ->
      Alcotest.(check (option (float 1e-9))) "Some survives" (Some 12.5)
        b.History.b_pass_ms_p99
  | None -> Alcotest.fail "batch stats lost");
  let none = round_trip (record ()) in
  (match none.History.r_batch with
  | Some b ->
      Alcotest.(check (option (float 1e-9))) "None survives" None
        b.History.b_pass_ms_p99
  | None -> Alcotest.fail "batch stats lost");
  (* the optional field must not leak into the serialized form *)
  Alcotest.(check bool) "absent field not serialized" false
    (contains (J.to_string (History.record_to_json (record ()))) "pass_ms_p99")

let test_history_p99_gate_fires () =
  (* default envelope: 10x + 100ms slack over a 10ms baseline = 200ms *)
  let d =
    History.diff ~baseline:(record ~pass_ms_p99:10. ())
      (record ~pass_ms_p99:2000. ())
  in
  Alcotest.(check bool) "tail blowup is a regression" false
    (History.diff_ok d);
  Alcotest.(check bool) "finding names the p99" true
    (List.exists (fun r -> contains r "p99") d.History.d_regressions)

let test_history_p99_gate_needs_both () =
  let ok baseline candidate =
    History.diff_ok (History.diff ~baseline candidate)
  in
  Alcotest.(check bool) "within envelope passes" true
    (ok (record ~pass_ms_p99:10. ()) (record ~pass_ms_p99:150. ()));
  Alcotest.(check bool) "candidate None skips the gate" true
    (ok (record ~pass_ms_p99:10. ()) (record ()));
  Alcotest.(check bool) "baseline None skips the gate" true
    (ok (record ()) (record ~pass_ms_p99:5000. ()))

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "telemetry-snapshot",
      [
        Alcotest.test_case "write/read round trip" `Quick
          test_snapshot_round_trip;
        Alcotest.test_case "missing file is an Error" `Quick
          test_snapshot_read_missing_is_error;
        Alcotest.test_case "fsio read: empty file, raising variant" `Quick
          test_fsio_read_empty_and_raising;
        Alcotest.test_case "atomic under a concurrent reader" `Slow
          test_snapshot_atomic_under_concurrent_reader;
      ] );
    ( "telemetry-watchdog",
      [
        Alcotest.test_case "flags on deadline, recovers on beat" `Quick
          test_watchdog_flags_and_recovers;
        Alcotest.test_case "idle workers never stall" `Quick
          test_watchdog_idle_never_stalls;
        Alcotest.test_case "degenerate config rejected" `Quick
          test_watchdog_rejects_degenerate_config;
      ] );
    ( "telemetry-cache-stats",
      [
        Alcotest.test_case "hits/misses/evictions counted" `Quick
          test_cache_stats_count_lookups;
      ] );
    ( "telemetry-history",
      [
        Alcotest.test_case "pass_ms_p99 round-trips (Some and None)" `Quick
          test_history_p99_round_trips;
        Alcotest.test_case "sentinel: p99 blowup fires" `Quick
          test_history_p99_gate_fires;
        Alcotest.test_case "sentinel: gate needs both records" `Quick
          test_history_p99_gate_needs_both;
      ] );
  ]
