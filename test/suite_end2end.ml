(* End-to-end: every benchmark kernel, baseline vs DARM-melded, must
   produce identical memory and match the host reference; melding must
   reduce simulated cycles on the divergent kernels. *)

module K = Darm_kernels
module C = Darm_core
module Metrics = Darm_sim.Metrics

let check = Alcotest.(check bool)

let equiv ?transform kernel ~block_size ~n ~seed =
  Testlib.check_equivalence ?transform kernel ~block_size ~n ~seed

let test_sb_equivalence (kernel : K.Kernel.t) () =
  List.iter
    (fun block_size ->
      ignore (equiv kernel ~block_size ~n:256 ~seed:42))
    [ 64; 128 ]

let test_sb_speedup (kernel : K.Kernel.t) () =
  let base, meld = equiv kernel ~block_size:64 ~n:256 ~seed:7 in
  check
    (Printf.sprintf "%s: melding reduces cycles (%d -> %d)"
       kernel.K.Kernel.tag base.Metrics.cycles meld.Metrics.cycles)
    true
    (meld.Metrics.cycles < base.Metrics.cycles)

let test_sb_divergence_reduced (kernel : K.Kernel.t) () =
  let base, meld = equiv kernel ~block_size:64 ~n:256 ~seed:3 in
  check "dynamic divergence reduced" true
    (meld.Metrics.divergent_branches <= base.Metrics.divergent_branches)

let test_unpredication_off_still_correct () =
  let config = { C.Pass.default_config with unpredicate = false } in
  let transform f = ignore (C.Pass.run ~config ~checked:true f) in
  List.iter
    (fun kernel -> ignore (equiv ~transform kernel ~block_size:64 ~n:128 ~seed:11))
    [ K.Sb.sb1; K.Sb.sb2; K.Sb.sb3; K.Sb.sb1_r; K.Sb.sb2_r; K.Sb.sb3_r ]

let test_branch_fusion_equivalence () =
  let transform f =
    ignore
      (C.Pass.run ~config:C.Pass.branch_fusion_config ~checked:true f)
  in
  List.iter
    (fun kernel -> ignore (equiv ~transform kernel ~block_size:64 ~n:128 ~seed:13))
    [ K.Sb.sb1; K.Sb.sb2; K.Sb.sb3 ]

let test_seeds_property (kernel : K.Kernel.t) () =
  (* qcheck: correctness for arbitrary seeds *)
  let t =
    QCheck2.Test.make ~count:8
      ~name:(kernel.K.Kernel.tag ^ " equivalence for random seeds")
      QCheck2.Gen.small_int
      (fun seed ->
        ignore (equiv kernel ~block_size:64 ~n:128 ~seed);
        true)
  in
  QCheck_alcotest.to_alcotest t |> fun (_, _, f) -> f ()

let sb_cases =
  List.concat_map
    (fun k ->
      [
        Alcotest.test_case
          (k.K.Kernel.tag ^ " equivalence")
          `Quick (test_sb_equivalence k);
        Alcotest.test_case (k.K.Kernel.tag ^ " speedup") `Quick
          (test_sb_speedup k);
      ]
      (* the -R variants trade warp splits for unpredication guard
         branches, so the dynamic split count is only guaranteed to drop
         when the paths align perfectly *)
      @
      if String.length k.K.Kernel.tag <= 3 then
        [
          Alcotest.test_case
            (k.K.Kernel.tag ^ " divergence reduced")
            `Quick
            (test_sb_divergence_reduced k);
        ]
      else [])
    K.Sb.all

(* --- real-world kernels --- *)

let test_real_equivalence (kernel : K.Kernel.t) ~block_sizes ~n () =
  List.iter
    (fun block_size ->
      ignore (equiv kernel ~block_size ~n ~seed:17))
    block_sizes

let test_real_speedup (kernel : K.Kernel.t) ~block_size ~n () =
  let base, meld = equiv kernel ~block_size ~n ~seed:23 in
  check
    (Printf.sprintf "%s: melding reduces cycles (%d -> %d)"
       kernel.K.Kernel.tag base.Metrics.cycles meld.Metrics.cycles)
    true
    (meld.Metrics.cycles < base.Metrics.cycles)

let real_cases =
  [
    Alcotest.test_case "BIT equivalence" `Quick
      (test_real_equivalence K.Bitonic.kernel ~block_sizes:[ 64; 128 ] ~n:256);
    Alcotest.test_case "BIT speedup" `Quick
      (test_real_speedup K.Bitonic.kernel ~block_size:128 ~n:256);
    Alcotest.test_case "LUD equivalence" `Quick
      (test_real_equivalence K.Lud.kernel ~block_sizes:[ 16; 32; 64; 128 ]
         ~n:256);
    Alcotest.test_case "LUD speedup when divergent" `Quick
      (test_real_speedup K.Lud.kernel ~block_size:32 ~n:256);
    Alcotest.test_case "DCT equivalence" `Quick
      (test_real_equivalence K.Dct.kernel ~block_sizes:[ 64; 128 ] ~n:512);
    Alcotest.test_case "MS equivalence" `Quick
      (test_real_equivalence K.Mergesort.kernel ~block_sizes:[ 64; 128 ]
         ~n:256);
    Alcotest.test_case "PCM equivalence" `Quick
      (test_real_equivalence K.Pcm.kernel ~block_sizes:[ 64 ] ~n:1024);
    Alcotest.test_case "PCM speedup" `Quick
      (test_real_speedup K.Pcm.kernel ~block_size:64 ~n:1024);
    Alcotest.test_case "baseline sanity: BIT sorts" `Quick (fun () ->
        let inst =
          K.Bitonic.kernel.K.Kernel.make ~seed:3 ~block_size:64 ~n:128
        in
        ignore (Testlib.run_instance inst);
        Testlib.show_mismatch "bitonic baseline vs sorted reference"
          (inst.K.Kernel.read_result ())
          (inst.K.Kernel.reference ()));
  ]

(* flat-address-space melding (paper Fig. 10's flat counters) *)
let test_flat_melding () =
  let kernel = K.Patterns.flat_meld in
  let base, meld = equiv kernel ~block_size:64 ~n:256 ~seed:9 in
  check "no flat accesses in the baseline" true
    (base.Metrics.mem_flat = 0);
  check "melding created flat accesses" true (meld.Metrics.mem_flat > 0);
  check "and removed split shared/global ones" true
    (meld.Metrics.mem_shared < base.Metrics.mem_shared
    && meld.Metrics.mem_global <= base.Metrics.mem_global)

let test_fdct_float_melding () =
  let base, meld =
    equiv K.Fdct.kernel ~block_size:64 ~n:256 ~seed:5
  in
  check "float kernel speeds up" true
    (meld.Metrics.cycles < base.Metrics.cycles)

let suites =
  [
    ( "end2end",
      sb_cases @ real_cases
      @ [
          Alcotest.test_case "unpredication off still correct" `Quick
            test_unpredication_off_still_correct;
          Alcotest.test_case "branch fusion equivalence" `Quick
            test_branch_fusion_equivalence;
          Alcotest.test_case "SB1 random seeds" `Slow
            (test_seeds_property K.Sb.sb1);
          Alcotest.test_case "SB3 random seeds" `Slow
            (test_seeds_property K.Sb.sb3);
          Alcotest.test_case "flat-space melding" `Quick (fun () ->
              test_flat_melding ());
          Alcotest.test_case "FDCT float melding" `Quick (fun () ->
              test_fdct_float_melding ());
        ] );
  ]

