(* The melding pass's output, pinned byte for byte: a digest of the
   printed function after [Pass.run] (default config) for every registry
   point and a fixed set of generated kernels.  SimplifyCFG's forwarding
   sweep threads predecessors into phi incoming lists in predecessor-
   table order, so any change to that order (or to any decision the
   pass takes) changes a digest here. *)

open Darm_ir
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module Gen = Darm_fuzz.Gen
module Pass = Darm_core.Pass

let digest_of (f : Ssa.func) : string =
  ignore (Pass.run f);
  String.sub (Digest.to_hex (Digest.string (Printer.func_to_string f))) 0 16

let large_cfg = { Gen.default_cfg with Gen.max_depth = 5 }

(* (name, thunk building the function) for every pinned subject *)
let subjects () : (string * (unit -> Ssa.func)) list =
  let registry =
    List.concat_map
      (fun (k : Kernel.t) ->
        List.map
          (fun bs ->
            ( Printf.sprintf "%s/bs%d" k.Kernel.tag bs,
              fun () ->
                (k.Kernel.make ~seed:2022 ~block_size:bs ~n:k.Kernel.default_n)
                  .Kernel.func ))
          k.Kernel.block_sizes)
      Registry.all
  in
  let gen profile cfg seeds =
    List.map
      (fun seed ->
        ( Printf.sprintf "gen-%s/%d" profile seed,
          fun () -> Gen.generate ~cfg ~seed () ))
      seeds
  in
  registry
  @ gen "smoke" Gen.smoke_cfg (Testlib.seeds 0 99)
  @ gen "default" Gen.default_cfg (Testlib.seeds 0 19)
  (* the two kernels of the ledger's compile-large workload, which
     meld 46 and 22 times *)
  @ gen "depth5" large_cfg [ 1; 7 ]

(* Recorded before SimplifyCFG's forwarding sweep kept one incremental
   predecessor table per sweep (it rebuilt the table per block). *)
let golden : (string * string) list =
  [
    ("SB1/bs64", "7e3279ee44567985");
    ("SB1/bs128", "6a4457b9dbfba6a9");
    ("SB1/bs256", "285e7b54bcd49097");
    ("SB1/bs512", "23927b1a1757bc80");
    ("SB1/bs1024", "06b782ae7b75e955");
    ("SB2/bs64", "47dd3af76621d0ed");
    ("SB2/bs128", "2d02432271574dab");
    ("SB2/bs256", "6f1f7e5de2b7b7f9");
    ("SB2/bs512", "7e07d51291d2abd6");
    ("SB2/bs1024", "bf513b3312769a44");
    ("SB3/bs64", "2c7cea25155a8ec4");
    ("SB3/bs128", "16379dbe3ce13e39");
    ("SB3/bs256", "3af4d08930ce276c");
    ("SB3/bs512", "170027a71a62e1e1");
    ("SB3/bs1024", "2fa250f3e083cb52");
    ("SB1-R/bs64", "737a433014e6a099");
    ("SB1-R/bs128", "1acc3392960fd588");
    ("SB1-R/bs256", "10452ea68ec9b7c5");
    ("SB1-R/bs512", "e3ce46aa4b73cee0");
    ("SB1-R/bs1024", "55368ef43c39e558");
    ("SB2-R/bs64", "80116ded8028a202");
    ("SB2-R/bs128", "43f166173a1ced9d");
    ("SB2-R/bs256", "ffc96db5b19fc981");
    ("SB2-R/bs512", "b40070030a41d6e4");
    ("SB2-R/bs1024", "c9eb67479ce14646");
    ("SB3-R/bs64", "4cc9f59d7e79effc");
    ("SB3-R/bs128", "d015f61c390639c1");
    ("SB3-R/bs256", "5ad564621a01501f");
    ("SB3-R/bs512", "87d7cfe50496130f");
    ("SB3-R/bs1024", "34760ebc6e585135");
    ("LUD/bs16", "27292e8425b7dace");
    ("LUD/bs32", "367e5396c578b813");
    ("LUD/bs64", "054b5d3ee8d1899a");
    ("LUD/bs128", "ca28f2d62a9909ae");
    ("LUD/bs256", "dea7224e3d45cd77");
    ("BIT/bs64", "a70a735fe459e31c");
    ("BIT/bs128", "6890e3db025b3181");
    ("BIT/bs256", "c3ddd36d8fc42405");
    ("BIT/bs512", "55f47b298d30f305");
    ("BIT/bs1024", "0881f8eb5c630d56");
    ("DCT/bs64", "63715ed256d3c5a1");
    ("DCT/bs128", "63715ed256d3c5a1");
    ("DCT/bs256", "63715ed256d3c5a1");
    ("DCT/bs512", "63715ed256d3c5a1");
    ("DCT/bs1024", "63715ed256d3c5a1");
    ("MS/bs64", "09eef613bac38471");
    ("MS/bs128", "a7f09e5eeaf9e304");
    ("MS/bs256", "47ffbc7a0ec3edd6");
    ("MS/bs512", "7c5ce82013fc3093");
    ("PCM/bs64", "f41b3a820bddaa20");
    ("PCM/bs128", "d27fc082d3f32b3d");
    ("PCM/bs256", "60aa0aa3605b4f36");
    ("PCM/bs512", "663de5123f098714");
    ("IDENT/bs64", "98772226c1612c17");
    ("IDENT/bs128", "98772226c1612c17");
    ("IDENT/bs256", "98772226c1612c17");
    ("FLAT/bs64", "b6cf7e0261e4d021");
    ("FLAT/bs128", "108462257b08c3a4");
    ("FLAT/bs256", "1ce9e6db83ac7e13");
    ("FDCT/bs64", "d9784047b89ea1fa");
    ("FDCT/bs128", "d9784047b89ea1fa");
    ("FDCT/bs256", "d9784047b89ea1fa");
    ("gen-smoke/0", "ccbeada9f23b276f");
    ("gen-smoke/1", "19f4bcbdb780d7e6");
    ("gen-smoke/2", "279740342b3ee677");
    ("gen-smoke/3", "7c33d13176e1c731");
    ("gen-smoke/4", "471ee45a470cb7c6");
    ("gen-smoke/5", "a13623650e6e004d");
    ("gen-smoke/6", "3f0633a7bb8a8028");
    ("gen-smoke/7", "78d08cdfc4f5749c");
    ("gen-smoke/8", "90fd010787d19217");
    ("gen-smoke/9", "3b5e58e54493173a");
    ("gen-smoke/10", "4e7e9d852a5198a9");
    ("gen-smoke/11", "8ad4423d38954264");
    ("gen-smoke/12", "0337b88ae0b0b1d2");
    ("gen-smoke/13", "2348e3242d88d293");
    ("gen-smoke/14", "f2bc7b502e71f9a3");
    ("gen-smoke/15", "14175b71bb5898a0");
    ("gen-smoke/16", "acf04ee9295b2e0f");
    ("gen-smoke/17", "a2a70239abc4e9d9");
    ("gen-smoke/18", "d84eb5cef10c9a4b");
    ("gen-smoke/19", "36484fe8705b108c");
    ("gen-smoke/20", "516926ec822733e2");
    ("gen-smoke/21", "731fb81f973036cf");
    ("gen-smoke/22", "4eb038081068d311");
    ("gen-smoke/23", "1392a065d83f026e");
    ("gen-smoke/24", "d1db95d9d18a43ca");
    ("gen-smoke/25", "db761f6898eb29fa");
    ("gen-smoke/26", "415d10eaeec09ad8");
    ("gen-smoke/27", "cfbbc1be35824662");
    ("gen-smoke/28", "6322dc1335cc6b74");
    ("gen-smoke/29", "89acafceea5003f5");
    ("gen-smoke/30", "251b4f5ed01e4c85");
    ("gen-smoke/31", "0edcb318e7cde34c");
    ("gen-smoke/32", "493ad53c4c0526b0");
    ("gen-smoke/33", "9f88f5ad2f9ead95");
    ("gen-smoke/34", "7bf30531ffb61eea");
    ("gen-smoke/35", "d54ba72270774f36");
    ("gen-smoke/36", "995e1acc3f13c2ed");
    ("gen-smoke/37", "79f5996bad58e16b");
    ("gen-smoke/38", "5dd31be0bf87b178");
    ("gen-smoke/39", "9e605465c743acb8");
    ("gen-smoke/40", "cbc42077231f7b66");
    ("gen-smoke/41", "b0ce28875894979d");
    ("gen-smoke/42", "13682311d14099d1");
    ("gen-smoke/43", "05bdd8203abcfcd4");
    ("gen-smoke/44", "8adf07485ee6ef5a");
    ("gen-smoke/45", "ec3d44de563bd931");
    ("gen-smoke/46", "4bf8375e24b2353c");
    ("gen-smoke/47", "ae25cbcde7c0ce05");
    ("gen-smoke/48", "e2196aea8dfb7041");
    ("gen-smoke/49", "7de8b6fccbcdecda");
    ("gen-smoke/50", "3b2c5e9e58f5c7c1");
    ("gen-smoke/51", "5cc280e6d37f3bf7");
    ("gen-smoke/52", "2a11562da1ae3e4d");
    ("gen-smoke/53", "6537cf9764295824");
    ("gen-smoke/54", "3e2e8809fe2bbec2");
    ("gen-smoke/55", "900becb0b58626e3");
    ("gen-smoke/56", "80194759bef99b61");
    ("gen-smoke/57", "a49f68c941660078");
    ("gen-smoke/58", "00b9ef0018fdd053");
    ("gen-smoke/59", "219d4115d9fec286");
    ("gen-smoke/60", "fc0f4c2ff6244e1b");
    ("gen-smoke/61", "8ec3a5b3bc079987");
    ("gen-smoke/62", "ae51ab034c70b331");
    ("gen-smoke/63", "51f8de3bf1b7a963");
    ("gen-smoke/64", "edb03b4444a12b68");
    ("gen-smoke/65", "b6691cf66afc41ed");
    ("gen-smoke/66", "cdc5e8afb7ed07bb");
    ("gen-smoke/67", "3f6c488d4973d2df");
    ("gen-smoke/68", "2b7b02a908219579");
    ("gen-smoke/69", "d6bd83e9f55f5c5d");
    ("gen-smoke/70", "aebe1f1564cd50ef");
    ("gen-smoke/71", "a6e071596093b793");
    ("gen-smoke/72", "6461884eca5d694e");
    ("gen-smoke/73", "c2e92a75d28e564e");
    ("gen-smoke/74", "8e8f8a21019de1b8");
    ("gen-smoke/75", "60f971fddfed2441");
    ("gen-smoke/76", "fc4e720708361acd");
    ("gen-smoke/77", "9d0f6c2beec2db16");
    ("gen-smoke/78", "cd6c4638e3229cd1");
    ("gen-smoke/79", "273f57b6b6766cda");
    ("gen-smoke/80", "0afa9bcceb7d38f2");
    ("gen-smoke/81", "bb283b0ff1b43fd0");
    ("gen-smoke/82", "b855012e065ed422");
    ("gen-smoke/83", "948f784827285127");
    ("gen-smoke/84", "0ca3d791418087b7");
    ("gen-smoke/85", "146f08f42aefecdd");
    ("gen-smoke/86", "0d2c40dee16e4dc3");
    ("gen-smoke/87", "188b18a150f8e495");
    ("gen-smoke/88", "302e25f122de1cf6");
    ("gen-smoke/89", "3a4aa5951897c8bd");
    ("gen-smoke/90", "9d6897272433d255");
    ("gen-smoke/91", "061f4efb8576b7bd");
    ("gen-smoke/92", "1fcfedbc62fc1fcf");
    ("gen-smoke/93", "438b0650c6511310");
    ("gen-smoke/94", "a9c5db20c260e5d7");
    ("gen-smoke/95", "9e55d7304e52593d");
    ("gen-smoke/96", "79744619eeec9763");
    ("gen-smoke/97", "eba734e32ec8f0a5");
    ("gen-smoke/98", "b38870ec70700d02");
    ("gen-smoke/99", "7fff14d6515c4f11");
    ("gen-default/0", "125405a80ea22de5");
    ("gen-default/1", "4ea60c3b4c592efa");
    ("gen-default/2", "ebd38dccbe6c4dfe");
    ("gen-default/3", "e947cad544a2e741");
    ("gen-default/4", "80f9105928a3abd0");
    ("gen-default/5", "66499a731c3501b0");
    ("gen-default/6", "d154143cd72441d4");
    ("gen-default/7", "2486d2abbe8ee7dd");
    ("gen-default/8", "a267da47c4a06627");
    ("gen-default/9", "02598cf5c98f86df");
    ("gen-default/10", "51173d4c4e6bb034");
    ("gen-default/11", "d9febad9a43b9549");
    ("gen-default/12", "749f908d25f4d4d4");
    ("gen-default/13", "1baced5abba2e520");
    ("gen-default/14", "a38b31fec9e06085");
    ("gen-default/15", "94a4ca06693b9bb0");
    ("gen-default/16", "4a718b2adc6d93cc");
    ("gen-default/17", "5e255fa2332538c9");
    ("gen-default/18", "87cdc103ecac6f97");
    ("gen-default/19", "b48c93811d5f4277");
    ("gen-depth5/1", "d15e7669412940f1");
    ("gen-depth5/7", "ddfdf0d57934da87");
  ]

let test_pass_output_pinned () =
  let rows =
    List.map (fun (name, mk) -> (name, digest_of (mk ()))) (subjects ())
  in
  let bad =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name golden with
        | Some g when String.equal g d -> None
        | _ -> Some (Printf.sprintf "    (%S, %S);" name d))
      rows
  in
  if bad <> [] then
    Alcotest.failf "%d of %d pass outputs differ from the golden table:\n%s"
      (List.length bad) (List.length rows) (String.concat "\n" bad);
  Alcotest.(check int) "golden rows" (List.length golden) (List.length rows)

let suites =
  [
    ( "pass-golden",
      [
        Alcotest.test_case "pass output: every subject pinned" `Slow
          test_pass_output_pinned;
      ] );
  ]
