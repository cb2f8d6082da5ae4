(* Fleet telemetry, metric side: histogram percentile estimation and
   the darm-metrics-v1 parser. *)

module MR = Darm_obs.Metrics_registry
module J = Darm_obs.Json

(* histogram series for [name] out of a one-shot registry *)
let hist ?buckets name samples =
  let reg = MR.create () in
  List.iter (fun v -> MR.observe reg ?buckets name v) samples;
  match MR.find_series (MR.snapshot reg) name with
  | Some s -> s
  | None -> Alcotest.failf "series %s not registered" name

let check_pct msg expected series q =
  match MR.percentile series q with
  | None -> Alcotest.failf "%s: no estimate" msg
  | Some v -> Alcotest.(check (float 1e-9)) msg expected v

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let test_percentile_empty_histogram () =
  (* zero samples: no rank to locate, whatever the bucket layout *)
  let empty =
    {
      MR.s_labels = [];
      s_value = 0.;
      s_count = 0;
      s_buckets = [ (1., 0); (infinity, 0) ];
    }
  in
  Alcotest.(check (option (float 0.))) "empty -> None" None
    (MR.percentile empty 0.5)

let test_percentile_non_histogram () =
  let reg = MR.create () in
  MR.inc reg "c_total";
  let s = Option.get (MR.find_series (MR.snapshot reg) "c_total") in
  Alcotest.(check (option (float 0.))) "counter -> None" None
    (MR.percentile s 0.5)

let test_percentile_single_sample () =
  let s = hist ~buckets:[ 10. ] "h" [ 5. ] in
  (* one sample in (0, 10]: the estimate interpolates the bucket *)
  check_pct "p50 of one sample" 5. s 0.5;
  check_pct "p100 of one sample" 10. s 1.0

let test_percentile_exact_boundary () =
  (* samples sitting exactly on bucket bounds, quantile ranks sitting
     exactly on cumulative counts: the estimate is exact *)
  let s = hist ~buckets:[ 1.; 2.; 3. ] "h" [ 1.; 2.; 3. ] in
  check_pct "rank 1 -> first bound" 1. s (1. /. 3.);
  check_pct "rank 2 -> second bound" 2. s (2. /. 3.);
  check_pct "rank 3 -> third bound" 3. s 1.0

let test_percentile_inf_bucket_caps () =
  (* the quantile lands in +Inf: report the highest finite bound
     rather than inventing a value *)
  let s = hist ~buckets:[ 10. ] "h" [ 50. ] in
  check_pct "+Inf caps at highest finite bound" 10. s 0.99

let test_percentile_no_finite_bounds_mean () =
  (* degenerate layout (only +Inf): the mean is the best estimate *)
  let s = hist ~buckets:[] "h" [ 4.; 6. ] in
  check_pct "mean fallback" 5. s 0.99

let test_percentile_clamps_q () =
  let s = hist ~buckets:[ 10. ] "h" [ 5. ] in
  (match MR.percentile s (-1.) with
  | Some v -> Alcotest.(check bool) "q<0 clamps" true (v >= 0.)
  | None -> Alcotest.fail "q<0 must clamp, not fail");
  match MR.percentile s 2. with
  | Some v -> Alcotest.(check (float 1e-9)) "q>1 clamps to max bound" 10. v
  | None -> Alcotest.fail "q>1 must clamp, not fail"

(* ------------------------------------------------------------------ *)
(* darm-metrics-v1 parser *)

let test_metrics_json_round_trip () =
  let reg = MR.create () in
  MR.inc reg ~by:3. "c_total";
  MR.help reg "c_total" "a counter";
  MR.set reg ~labels:[ ("worker", "0") ] "g" 1.5;
  MR.set reg ~labels:[ ("worker", "1") ] "g" 2.5;
  MR.observe reg ~buckets:[ 1.; 10. ] "h_ms" 0.5;
  MR.observe reg ~buckets:[ 1.; 10. ] "h_ms" 42.;
  let fams = MR.snapshot reg in
  match MR.of_json (MR.to_json fams) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok back ->
      Alcotest.(check bool) "structural round trip" true (back = fams);
      Alcotest.(check string) "prometheus round trip"
        (MR.to_prometheus fams) (MR.to_prometheus back)

let test_metrics_json_rejects_wrong_schema () =
  let doc = J.Obj [ ("schema", J.Str "darm-metrics-v999") ] in
  match MR.of_json doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema must be rejected"

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "telemetry-percentiles",
      [
        Alcotest.test_case "empty histogram -> None" `Quick
          test_percentile_empty_histogram;
        Alcotest.test_case "counter series -> None" `Quick
          test_percentile_non_histogram;
        Alcotest.test_case "single sample interpolates" `Quick
          test_percentile_single_sample;
        Alcotest.test_case "exact bucket boundaries" `Quick
          test_percentile_exact_boundary;
        Alcotest.test_case "+Inf bucket caps at finite bound" `Quick
          test_percentile_inf_bucket_caps;
        Alcotest.test_case "no finite bounds -> mean" `Quick
          test_percentile_no_finite_bounds_mean;
        Alcotest.test_case "quantile clamped to 0..1" `Quick
          test_percentile_clamps_q;
        Alcotest.test_case "darm-metrics-v1 round trip" `Quick
          test_metrics_json_round_trip;
        Alcotest.test_case "parser rejects wrong schema" `Quick
          test_metrics_json_rejects_wrong_schema;
      ] );
  ]
