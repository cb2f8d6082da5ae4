(* Fleet-scale batch driver and its persistence layer: the
   content-addressed result cache must treat every form of on-disk
   damage as a miss (never an error), a warm run must replay the cold
   run's bytes verbatim at any pool size, manifests must report
   1-based line numbers, the budget must cut at a deterministic chunk
   boundary, and the bench-history sentinel must gate batch
   throughput.  Also pins the Fsio atomic-write contract the cache and
   the trace/bench writers share. *)

module B = Darm_fuzz.Batch
module Cache = Darm_harness.Result_cache
module History = Darm_harness.History
module J = Darm_obs.Json
module MR = Darm_obs.Metrics_registry
module Fsio = Darm_obs.Fsio
module Export = Darm_obs.Export
module Trace = Darm_obs.Trace

let contains (hay : string) (needle : string) : bool =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* fresh scratch directory; tests clean up what they care about and
   the OS tempdir absorbs the rest *)
let temp_dir () =
  let path = Filename.temp_file "darm_batch_test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let write_raw path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let valid_payload =
  J.to_string
    (J.Obj [ ("schema", J.Str Cache.default_schema); ("x", J.Int 1) ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Result cache *)

let test_cache_store_find_identical () =
  let c = Cache.create ~dir:(Filename.concat (temp_dir ()) "cache") () in
  let key = Cache.key c [ "ir"; "pass"; "workload" ] in
  Alcotest.(check (option string)) "missing entry is a miss" None
    (Cache.find c ~key);
  Cache.store c ~key valid_payload;
  Alcotest.(check (option string)) "hit replays the exact bytes"
    (Some valid_payload) (Cache.find c ~key)

let test_cache_key_unambiguous () =
  let c = Cache.create ~dir:(Filename.concat (temp_dir ()) "cache") () in
  (* length-prefixed joining: part boundaries must matter *)
  Alcotest.(check bool) "[ab;c] <> [a;bc]" false
    (Cache.key c [ "ab"; "c" ] = Cache.key c [ "a"; "bc" ]);
  Alcotest.(check string) "deterministic"
    (Cache.key c [ "a"; "b" ])
    (Cache.key c [ "a"; "b" ])

let test_cache_damaged_entries_are_misses () =
  let c = Cache.create ~dir:(Filename.concat (temp_dir ()) "cache") () in
  let key = Cache.key c [ "damaged" ] in
  Cache.store c ~key valid_payload;
  let path = Cache.entry_path c ~key in
  (* corrupt: not JSON at all *)
  write_raw path "not json {{{";
  Alcotest.(check (option string)) "corrupt entry recomputes" None
    (Cache.find c ~key);
  (* truncated: a prefix of a valid payload *)
  write_raw path (String.sub valid_payload 0 (String.length valid_payload / 2));
  Alcotest.(check (option string)) "truncated entry recomputes" None
    (Cache.find c ~key);
  (* wrong schema: valid JSON from some other (or future) writer *)
  write_raw path "{\"schema\":\"darm-batchres-v999\",\"x\":1}\n";
  Alcotest.(check (option string)) "wrong-schema entry recomputes" None
    (Cache.find c ~key);
  (* empty file *)
  write_raw path "";
  Alcotest.(check (option string)) "empty entry recomputes" None
    (Cache.find c ~key);
  (* and a repaired entry is served again *)
  write_raw path valid_payload;
  Alcotest.(check (option string)) "repaired entry hits"
    (Some valid_payload) (Cache.find c ~key)

let test_cache_evicts_poison_entries () =
  let c = Cache.create ~dir:(Filename.concat (temp_dir ()) "cache") () in
  let key = Cache.key c [ "poison" ] in
  Cache.store c ~key valid_payload;
  let path = Cache.entry_path c ~key in
  (* a truncated entry is a miss AND is removed from disk, so the next
     store rewrites it instead of every lookup re-parsing garbage *)
  write_raw path (String.sub valid_payload 0 (String.length valid_payload / 2));
  Alcotest.(check (option string)) "truncated entry misses" None
    (Cache.find c ~key);
  Alcotest.(check bool) "truncated entry evicted" false (Sys.file_exists path);
  Alcotest.(check (option string)) "second lookup still a miss" None
    (Cache.find c ~key);
  (* a valid entry is never evicted *)
  Cache.store c ~key valid_payload;
  Alcotest.(check (option string)) "restored entry hits" (Some valid_payload)
    (Cache.find c ~key);
  Alcotest.(check bool) "valid entry kept" true (Sys.file_exists path)

let test_cache_store_rejects_invalid_payload () =
  let c = Cache.create ~dir:(Filename.concat (temp_dir ()) "cache") () in
  let key = Cache.key c [ "bad" ] in
  (match Cache.store c ~key "not json" with
  | () -> Alcotest.fail "non-JSON payload must be rejected at store time"
  | exception Invalid_argument _ -> ());
  match Cache.store c ~key "{\"schema\":\"other-v1\"}\n" with
  | () -> Alcotest.fail "wrong-schema payload must be rejected at store time"
  | exception Invalid_argument _ -> ()

let test_cache_clear () =
  let c = Cache.create ~dir:(Filename.concat (temp_dir ()) "cache") () in
  Cache.store c ~key:(Cache.key c [ "a" ]) valid_payload;
  Cache.store c ~key:(Cache.key c [ "b" ]) valid_payload;
  Alcotest.(check int) "two entries removed" 2 (Cache.clear c);
  Alcotest.(check (option string)) "cleared entry is a miss" None
    (Cache.find c ~key:(Cache.key c [ "a" ]));
  Alcotest.(check int) "second clear is a no-op" 0 (Cache.clear c)

(* ------------------------------------------------------------------ *)
(* Manifests *)

let test_manifest_round_trip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.jsonl" in
  B.write_fuzz_manifest ~path ~count:5 ~seed_start:10 ();
  match B.read_manifest path with
  | Error e -> Alcotest.failf "read_manifest: %s" e
  | Ok specs ->
      Alcotest.(check int) "count" 5 (List.length specs);
      Alcotest.(check (list string)) "names in file order"
        [ "fuzz_10"; "fuzz_11"; "fuzz_12"; "fuzz_13"; "fuzz_14" ]
        (List.map B.spec_name specs)

let test_manifest_blank_lines_skipped () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.jsonl" in
  write_raw path
    "\n{\"kind\":\"fuzz\",\"seed\":1}\n   \n\n{\"kind\":\"registry\",\"kernel\":\"BIT\"}\n\n";
  match B.read_manifest path with
  | Error e -> Alcotest.failf "read_manifest: %s" e
  | Ok specs ->
      Alcotest.(check (list string)) "blank lines skipped"
        [ "fuzz_1"; "BIT" ]
        (List.map B.spec_name specs)

let test_manifest_error_line_numbers () =
  let dir = temp_dir () in
  let path = Filename.concat dir "m.jsonl" in
  (* the bad line is line 3 (1-based), after a spec and a blank *)
  write_raw path "{\"kind\":\"fuzz\",\"seed\":1}\n\n{oops\n";
  (match B.read_manifest path with
  | Ok _ -> Alcotest.fail "malformed manifest must not parse"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S carries path:3:" e)
        true
        (contains e (path ^ ":3:")));
  write_raw path "{\"kind\":\"teapot\"}\n";
  (match B.read_manifest path with
  | Ok _ -> Alcotest.fail "unknown kind must not parse"
  | Error e ->
      Alcotest.(check bool) "unknown kind names the line" true
        (contains e ":1:" && contains e "teapot"));
  (match B.read_manifest (Filename.concat dir "absent.jsonl") with
  | Ok _ -> Alcotest.fail "missing manifest must not parse"
  | Error e ->
      Alcotest.(check bool) "missing file reported" true
        (contains e "no such file"));
  match B.read_manifest dir with
  | Ok _ -> Alcotest.fail "a directory must not parse as a manifest"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names the directory" e)
        true
        (contains e (dir ^ ": is a directory"))

let test_spec_validation () =
  let parse line =
    match J.parse line with
    | Ok j -> B.spec_of_json j
    | Error e -> Alcotest.failf "test line is not JSON: %s" e
  in
  (match parse "{\"kind\":\"fuzz\",\"seed\":1,\"profile\":\"huge\"}" with
  | Ok _ -> Alcotest.fail "unknown profile must be rejected"
  | Error e ->
      Alcotest.(check bool) "profile error" true (contains e "profile"));
  (match parse "{\"kind\":\"fuzz\",\"seed\":1,\"block_size\":4096}" with
  | Ok _ -> Alcotest.fail "block_size beyond array_size must be rejected"
  | Error e ->
      Alcotest.(check bool) "block-size error" true
        (contains e "block_size"));
  (match parse "{\"kind\":\"fuzz\",\"seed\":1,\"features\":\"warp-drives\"}" with
  | Ok _ -> Alcotest.fail "bad feature spec must be rejected"
  | Error _ -> ());
  (* non-positive sizes: a zero block divided by zero, a negative one
     ran no thread and reported a miscompile, a negative n ran *)
  List.iter
    (fun (line, field) ->
      match parse line with
      | Ok _ -> Alcotest.failf "%s must be rejected" line
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names %s" line e field)
            true
            (contains e (Printf.sprintf "%S must be positive" field)))
    [
      ("{\"kind\":\"fuzz\",\"seed\":1,\"block_size\":0}", "block_size");
      ("{\"kind\":\"fuzz\",\"seed\":1,\"block_size\":-64}", "block_size");
      ("{\"kind\":\"registry\",\"kernel\":\"BIT\",\"n\":-5}", "n");
      ("{\"kind\":\"registry\",\"kernel\":\"BIT\",\"n\":0}", "n");
      ( "{\"kind\":\"registry\",\"kernel\":\"BIT\",\"block_size\":0}",
        "block_size" );
    ];
  (let path = Filename.concat (temp_dir ()) "m.jsonl" in
   write_raw path
     "{\"kind\":\"fuzz\",\"seed\":1}\n{\"kind\":\"fuzz\",\"seed\":2,\"block_size\":0}\n";
   match B.read_manifest path with
   | Ok _ -> Alcotest.fail "a zero block size must fail the manifest"
   | Error e ->
       Alcotest.(check bool) "names the 1-based line" true
         (contains e (path ^ ":2:")));
  (match
     B.write_fuzz_manifest
       ~path:(Filename.concat (temp_dir ()) "m.jsonl")
       ~count:1 ~block_size:0 ()
   with
  | () -> Alcotest.fail "the writer must refuse a zero block size"
  | exception Invalid_argument _ -> ());
  match parse "{\"kind\":\"fuzz\",\"seed\":7}" with
  | Error e -> Alcotest.failf "defaults must apply: %s" e
  | Ok s -> Alcotest.(check string) "defaulted spec" "fuzz_7" (B.spec_name s)

(* ------------------------------------------------------------------ *)
(* The driver *)

let smoke_specs ~count =
  List.init count (fun i ->
      B.Fuzz
        { fz_seed = i; fz_block_size = 64; fz_smoke = true;
          fz_features = "all"; fz_inject = None })

let test_batch_two_pass_warm_hits () =
  let dir = temp_dir () in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
  let cold_out = Filename.concat dir "cold.jsonl" in
  let warm_out = Filename.concat dir "warm.jsonl" in
  let specs = smoke_specs ~count:5 in
  let cold = B.run ~jobs:1 ~cache ~out:cold_out specs in
  Alcotest.(check int) "cold run processes all" 5 cold.B.bt_run;
  Alcotest.(check int) "cold run has no hits" 0 cold.B.bt_hits;
  Alcotest.(check int) "cold run computes all" 5 cold.B.bt_misses;
  Alcotest.(check int) "no incorrect" 0 cold.B.bt_incorrect;
  Alcotest.(check int) "no errors" 0 cold.B.bt_errors;
  let warm = B.run ~jobs:4 ~cache ~out:warm_out specs in
  Alcotest.(check int) "warm run hits everything" 5 warm.B.bt_hits;
  Alcotest.(check (float 0.)) "hit rate 1.0" 1.0 (B.hit_rate warm);
  (* the byte-identity contract: warm bytes = cold bytes, across
     different pool sizes *)
  Alcotest.(check string) "warm replay is byte-identical"
    (Fsio.read_file cold_out) (Fsio.read_file warm_out);
  Alcotest.(check int) "one line per spec" 5
    (List.length
       (String.split_on_char '\n' (String.trim (Fsio.read_file cold_out))));
  Alcotest.(check bool) "payload schema stamped" true
    (contains (Fsio.read_file cold_out) "\"schema\":\"darm-batchres-v1\"")

let test_batch_damaged_cache_recomputes () =
  let dir = temp_dir () in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
  let out = Filename.concat dir "r.jsonl" in
  let specs = smoke_specs ~count:2 in
  let cold = B.run ~jobs:1 ~cache ~out specs in
  Alcotest.(check int) "cold misses" 2 cold.B.bt_misses;
  let bytes0 = Fsio.read_file out in
  (* smash every cache entry; the run must quietly recompute *)
  Alcotest.(check int) "cache held both" 2 (Cache.clear cache);
  let again = B.run ~jobs:1 ~cache ~out specs in
  Alcotest.(check int) "cleared cache recomputes" 2 again.B.bt_misses;
  Alcotest.(check int) "no errors from the damage" 0 again.B.bt_errors;
  (* drop the one wall-clock field so the recomputed runs compare *)
  let scrub s =
    String.split_on_char '\n' s
    |> List.map (fun line ->
           match J.parse line with
           | Ok (J.Obj fields) ->
               J.to_string
                 (J.Obj (List.filter (fun (k, _) -> k <> "pass_ms") fields))
           | _ -> line)
    |> String.concat "\n"
  in
  Alcotest.(check string) "recomputed bytes identical modulo pass_ms"
    (scrub bytes0)
    (scrub (Fsio.read_file out))

let test_batch_budget_cuts_deterministically () =
  let dir = temp_dir () in
  let out = Filename.concat dir "r.jsonl" in
  let sum = B.run ~jobs:1 ~budget_s:0. ~out (smoke_specs ~count:3) in
  Alcotest.(check int) "nothing starts past the deadline" 0 sum.B.bt_run;
  Alcotest.(check bool) "budget flagged" true sum.B.bt_budget_exhausted;
  Alcotest.(check string) "valid (empty) JSONL prefix" ""
    (Fsio.read_file out)

let test_batch_error_specs_not_cached () =
  let dir = temp_dir () in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
  let out = Filename.concat dir "r.jsonl" in
  let specs =
    [ B.Registry
        { rs_tag = "NO_SUCH_KERNEL"; rs_block_size = None; rs_n = None;
          rs_seed = 1 } ]
  in
  let first = B.run ~jobs:1 ~cache ~out specs in
  Alcotest.(check int) "error counted" 1 first.B.bt_errors;
  Alcotest.(check bool) "status error emitted" true
    (contains (Fsio.read_file out) "\"status\":\"error\"");
  let second = B.run ~jobs:1 ~cache ~out specs in
  Alcotest.(check int) "errors never come from the cache" 0
    second.B.bt_hits

let test_batch_metrics_export () =
  let dir = temp_dir () in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
  let out = Filename.concat dir "r.jsonl" in
  let specs = smoke_specs ~count:2 in
  let reg = MR.create () in
  let sum = B.run ~jobs:1 ~cache ~registry:reg ~out specs in
  Alcotest.(check (option (float 0.))) "kernel counter" (Some 2.)
    (MR.find reg "darm_batch_kernels_total");
  Alcotest.(check (option (float 0.))) "hit-rate gauge" (Some 0.)
    (MR.find reg "darm_batch_cache_hit_rate");
  Alcotest.(check (option (float 0.))) "cache misses" (Some 2.)
    (MR.find reg "darm_cache_misses_total");
  let doc = MR.to_prometheus (MR.snapshot reg) in
  Alcotest.(check bool) "throughput exposed" true
    (contains doc "darm_batch_kernels_per_sec");
  Alcotest.(check bool) "summary line format" true
    (contains (B.summary_to_string sum) "hit-rate 0.0%");
  let warm = MR.create () in
  ignore (B.run ~jobs:1 ~cache ~registry:warm ~out specs);
  Alcotest.(check (option (float 0.))) "warm cache hits" (Some 2.)
    (MR.find warm "darm_cache_hits_total")

(* ------------------------------------------------------------------ *)
(* Bench-history integration *)

let batch_stats ?(kernels = 100) ?(hits = 50) ?(incorrect = 0)
    ?(wall_s = 1.0) () =
  {
    History.b_kernels = kernels;
    b_hits = hits;
    b_misses = kernels - hits;
    b_incorrect = incorrect;
    b_wall_s = wall_s;
    b_pass_ms_p99 = None;
  }

let test_history_batch_round_trip () =
  let r = History.of_batch ~jobs:2 ~time:1722800000. (batch_stats ()) in
  match History.record_of_json (History.record_to_json r) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok r' ->
      Alcotest.(check bool) "batch stats survive" true
        (r'.History.r_batch = r.History.r_batch);
      Alcotest.(check bool) "entry-less" true (r'.History.r_entries = []);
      let b = Option.get r'.History.r_batch in
      Alcotest.(check (float 1e-9)) "hit rate recomputed" 0.5
        (History.batch_hit_rate b);
      Alcotest.(check (float 1e-9)) "kernels/sec recomputed" 100.
        (History.batch_kernels_per_sec b)

let test_sentinel_batch_only_records_ok () =
  let base = History.of_batch ~time:0. (batch_stats ()) in
  let cand = History.of_batch ~time:1. (batch_stats ~hits:100 ()) in
  let d = History.diff ~baseline:base cand in
  Alcotest.(check bool) "two batch-only records compare clean" true
    (History.diff_ok d);
  Alcotest.(check bool) "hit-rate improvement noted" true
    (List.exists (fun n -> contains n "hit-rate") d.History.d_notes)

let test_sentinel_batch_throughput_collapse_fires () =
  let base = History.of_batch ~time:0. (batch_stats ~wall_s:1.0 ()) in
  (* 100 -> 0.5 kernels/sec: far below the default 0.1 ratio *)
  let cand = History.of_batch ~time:1. (batch_stats ~wall_s:200.0 ()) in
  let d = History.diff ~baseline:base cand in
  Alcotest.(check bool) "collapse is a regression" false (History.diff_ok d);
  Alcotest.(check bool) "finding names kernels/sec" true
    (List.exists
       (fun r -> contains r "kernels/sec")
       d.History.d_regressions);
  (* a mild slowdown stays inside the generous default ratio *)
  let mild = History.of_batch ~time:1. (batch_stats ~wall_s:3.0 ()) in
  Alcotest.(check bool) "3x wall-clock noise tolerated" true
    (History.diff_ok (History.diff ~baseline:base mild))

let test_sentinel_batch_incorrect_fires () =
  let base = History.of_batch ~time:0. (batch_stats ()) in
  let cand = History.of_batch ~time:1. (batch_stats ~incorrect:1 ()) in
  Alcotest.(check bool) "new incorrect kernel is a regression" false
    (History.diff_ok (History.diff ~baseline:base cand))

(* ------------------------------------------------------------------ *)
(* History-file robustness (the I/O layer the batch records land in) *)

let test_history_load_skips_blank_lines () =
  let path = Filename.temp_file "darm_hist_blank" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r = History.of_batch ~time:0. (batch_stats ()) in
      let line = J.to_string (History.record_to_json r) in
      write_raw path ("\n" ^ line ^ "\n\n   \n" ^ line ^ "\n\n");
      match History.load ~path () with
      | Error e -> Alcotest.failf "blank lines must be skipped: %s" e
      | Ok rs -> Alcotest.(check int) "two records" 2 (List.length rs))

let test_history_load_reports_line_numbers () =
  let path = Filename.temp_file "darm_hist_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r = History.of_batch ~time:0. (batch_stats ()) in
      let line = J.to_string (History.record_to_json r) in
      (* the malformed line is line 3: record, blank, garbage *)
      write_raw path (line ^ "\n\n{nope\n");
      match History.load ~path () with
      | Ok _ -> Alcotest.fail "garbage line must fail the load"
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S carries :3:" e)
            true (contains e ":3:"))

(* ------------------------------------------------------------------ *)
(* Atomic writes *)

let test_fsio_atomic_failure_keeps_old_file () =
  let dir = temp_dir () in
  let path = Filename.concat dir "out.bin" in
  write_raw path "precious";
  (match
     Fsio.write_atomic
       ~validate:(fun _ -> failwith "reject")
       ~path "replacement"
   with
  | () -> Alcotest.fail "validation failure must propagate"
  | exception Failure _ -> ());
  Alcotest.(check string) "pre-existing bytes untouched" "precious"
    (Fsio.read_file path);
  Alcotest.(check (list string)) "no temp litter" [ "out.bin" ]
    (Array.to_list (Sys.readdir dir));
  Fsio.write_atomic ~path "replacement";
  Alcotest.(check string) "clean write replaces" "replacement"
    (Fsio.read_file path)

let test_export_empty_trace_keeps_old_file () =
  let dir = temp_dir () in
  let path = Filename.concat dir "trace.json" in
  write_raw path "old trace";
  (match
     Export.write_file ~format:Export.Chrome ~path (Trace.create ())
   with
  | () -> Alcotest.fail "an empty trace must fail validation"
  | exception Failure _ -> ());
  Alcotest.(check string) "failed export leaves the old file" "old trace"
    (Fsio.read_file path)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "result-cache",
      [
        Alcotest.test_case "store + find: byte-identical" `Quick
          test_cache_store_find_identical;
        Alcotest.test_case "key: part boundaries matter" `Quick
          test_cache_key_unambiguous;
        Alcotest.test_case "damaged entries are misses" `Quick
          test_cache_damaged_entries_are_misses;
        Alcotest.test_case "poison entries are evicted" `Quick
          test_cache_evicts_poison_entries;
        Alcotest.test_case "store rejects invalid payloads" `Quick
          test_cache_store_rejects_invalid_payload;
        Alcotest.test_case "clear" `Quick test_cache_clear;
      ] );
    ( "batch",
      [
        Alcotest.test_case "manifest: write + read round-trip" `Quick
          test_manifest_round_trip;
        Alcotest.test_case "manifest: blank lines skipped" `Quick
          test_manifest_blank_lines_skipped;
        Alcotest.test_case "manifest: 1-based error lines" `Quick
          test_manifest_error_line_numbers;
        Alcotest.test_case "manifest: spec validation" `Quick
          test_spec_validation;
        Alcotest.test_case "two-pass: warm run hits and replays bytes" `Slow
          test_batch_two_pass_warm_hits;
        Alcotest.test_case "damaged cache recomputes" `Slow
          test_batch_damaged_cache_recomputes;
        Alcotest.test_case "budget cuts before the first chunk" `Quick
          test_batch_budget_cuts_deterministically;
        Alcotest.test_case "error specs are never cached" `Quick
          test_batch_error_specs_not_cached;
        Alcotest.test_case "metrics export + summary line" `Slow
          test_batch_metrics_export;
      ] );
    ( "batch-history",
      [
        Alcotest.test_case "batch record round-trips" `Quick
          test_history_batch_round_trip;
        Alcotest.test_case "sentinel: batch-only records pass" `Quick
          test_sentinel_batch_only_records_ok;
        Alcotest.test_case "sentinel: throughput collapse fires" `Quick
          test_sentinel_batch_throughput_collapse_fires;
        Alcotest.test_case "sentinel: new incorrect kernels fire" `Quick
          test_sentinel_batch_incorrect_fires;
        Alcotest.test_case "history: blank lines skipped" `Quick
          test_history_load_skips_blank_lines;
        Alcotest.test_case "history: 1-based error lines" `Quick
          test_history_load_reports_line_numbers;
      ] );
    ( "fsio",
      [
        Alcotest.test_case "failed atomic write keeps the old file" `Quick
          test_fsio_atomic_failure_keeps_old_file;
        Alcotest.test_case "empty-trace export keeps the old file" `Quick
          test_export_empty_trace_keeps_old_file;
      ] );
  ]
