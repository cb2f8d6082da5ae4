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
   predecessor table per sweep (it rebuilt the table per block).  116
   rows were recorded again when Ssa.append_block began to name blocks
   uniquely: the printer had renamed a repeated name in layout order,
   so a block could print under another label after the pass; those
   texts differ from the old ones in block labels only. *)
let golden : (string * string) list =
  [
    ("SB1/bs64", "33667a1715686af8");
    ("SB1/bs128", "46bed121da039501");
    ("SB1/bs256", "ae561e7cbf906b76");
    ("SB1/bs512", "57caf49e020b42df");
    ("SB1/bs1024", "1eece029c49be605");
    ("SB2/bs64", "e56fc5cb329c7a76");
    ("SB2/bs128", "ac992b638fd4a57b");
    ("SB2/bs256", "96f82c459b2e9768");
    ("SB2/bs512", "881ca89d0462a22d");
    ("SB2/bs1024", "30251a016dea7f82");
    ("SB3/bs64", "9f93372c198246f2");
    ("SB3/bs128", "a63ee34baeeea7a7");
    ("SB3/bs256", "107d422fb2b279cf");
    ("SB3/bs512", "f0cddbc416d37e40");
    ("SB3/bs1024", "c5aa732e4ecc7114");
    ("SB1-R/bs64", "1246d444b6b219db");
    ("SB1-R/bs128", "b96553e87a14cac5");
    ("SB1-R/bs256", "3899bbf5716be5b2");
    ("SB1-R/bs512", "fdf737859f955025");
    ("SB1-R/bs1024", "302d30915b3ec9e0");
    ("SB2-R/bs64", "f1dc77fd991feda6");
    ("SB2-R/bs128", "a087f43784028d27");
    ("SB2-R/bs256", "11cc7215f56fd873");
    ("SB2-R/bs512", "67fddb98332d40fc");
    ("SB2-R/bs1024", "30be8a5003623716");
    ("SB3-R/bs64", "b34fea025c213ed8");
    ("SB3-R/bs128", "3c4fa74d751155c5");
    ("SB3-R/bs256", "3c923cc3e98bf537");
    ("SB3-R/bs512", "b43f43874623c2e9");
    ("SB3-R/bs1024", "0d7c82d3187f3da0");
    ("LUD/bs16", "27292e8425b7dace");
    ("LUD/bs32", "367e5396c578b813");
    ("LUD/bs64", "054b5d3ee8d1899a");
    ("LUD/bs128", "ca28f2d62a9909ae");
    ("LUD/bs256", "dea7224e3d45cd77");
    ("BIT/bs64", "6905870c696acaec");
    ("BIT/bs128", "e5cd245c2eec50bb");
    ("BIT/bs256", "ad7b35665618b3af");
    ("BIT/bs512", "037af0d18dfd0a56");
    ("BIT/bs1024", "5833ec2f9a7148df");
    ("DCT/bs64", "63715ed256d3c5a1");
    ("DCT/bs128", "63715ed256d3c5a1");
    ("DCT/bs256", "63715ed256d3c5a1");
    ("DCT/bs512", "63715ed256d3c5a1");
    ("DCT/bs1024", "63715ed256d3c5a1");
    ("MS/bs64", "09eef613bac38471");
    ("MS/bs128", "a7f09e5eeaf9e304");
    ("MS/bs256", "47ffbc7a0ec3edd6");
    ("MS/bs512", "7c5ce82013fc3093");
    ("PCM/bs64", "e761fbc5590aad90");
    ("PCM/bs128", "66bdee44fb1cfa6e");
    ("PCM/bs256", "7a099093c7d343ef");
    ("PCM/bs512", "fa66704053ee6cd5");
    ("IDENT/bs64", "98772226c1612c17");
    ("IDENT/bs128", "98772226c1612c17");
    ("IDENT/bs256", "98772226c1612c17");
    ("FLAT/bs64", "677fb95768026577");
    ("FLAT/bs128", "05f7af2eefab05e6");
    ("FLAT/bs256", "7bf56b6ff15073fe");
    ("FDCT/bs64", "d9784047b89ea1fa");
    ("FDCT/bs128", "d9784047b89ea1fa");
    ("FDCT/bs256", "d9784047b89ea1fa");
    ("gen-smoke/0", "13d9ca5e05fd8dbb");
    ("gen-smoke/1", "af252778a6bf985e");
    ("gen-smoke/2", "d0bed11bbaceb549");
    ("gen-smoke/3", "7c33d13176e1c731");
    ("gen-smoke/4", "3edb8e1537fd11f4");
    ("gen-smoke/5", "a13623650e6e004d");
    ("gen-smoke/6", "ee9c1fd0becab567");
    ("gen-smoke/7", "f1a8759d023b5985");
    ("gen-smoke/8", "7876c2533ca21897");
    ("gen-smoke/9", "421b005a2ef5122f");
    ("gen-smoke/10", "0a288c8b4d92d2cc");
    ("gen-smoke/11", "8ad4423d38954264");
    ("gen-smoke/12", "0337b88ae0b0b1d2");
    ("gen-smoke/13", "1fbf2efaec4d9d4f");
    ("gen-smoke/14", "c2bbefff4232d15f");
    ("gen-smoke/15", "9f52cd0fb7282d02");
    ("gen-smoke/16", "db8ef81f0bfc9768");
    ("gen-smoke/17", "a2a70239abc4e9d9");
    ("gen-smoke/18", "d84eb5cef10c9a4b");
    ("gen-smoke/19", "36484fe8705b108c");
    ("gen-smoke/20", "516926ec822733e2");
    ("gen-smoke/21", "731fb81f973036cf");
    ("gen-smoke/22", "4eb038081068d311");
    ("gen-smoke/23", "4e69eb8c66eac772");
    ("gen-smoke/24", "d1db95d9d18a43ca");
    ("gen-smoke/25", "d867ae4e61ba4bc2");
    ("gen-smoke/26", "415d10eaeec09ad8");
    ("gen-smoke/27", "8ab2223938eb845e");
    ("gen-smoke/28", "723b46a0837bc7ff");
    ("gen-smoke/29", "89acafceea5003f5");
    ("gen-smoke/30", "799d50e4c231ca9f");
    ("gen-smoke/31", "c97fd81ed2b58c11");
    ("gen-smoke/32", "493ad53c4c0526b0");
    ("gen-smoke/33", "9f88f5ad2f9ead95");
    ("gen-smoke/34", "170114d44c4500ab");
    ("gen-smoke/35", "c09d1278b16b3d5f");
    ("gen-smoke/36", "1050aadf9685b51c");
    ("gen-smoke/37", "7eb2f70b5a28c841");
    ("gen-smoke/38", "fae0419ae59470ab");
    ("gen-smoke/39", "9e605465c743acb8");
    ("gen-smoke/40", "51bcd19b74190d82");
    ("gen-smoke/41", "d86bfa61e47cda9e");
    ("gen-smoke/42", "5b34231a6f30bd47");
    ("gen-smoke/43", "05bdd8203abcfcd4");
    ("gen-smoke/44", "8adf07485ee6ef5a");
    ("gen-smoke/45", "db3fd6faf8b5cfd3");
    ("gen-smoke/46", "4bf8375e24b2353c");
    ("gen-smoke/47", "ae25cbcde7c0ce05");
    ("gen-smoke/48", "e2196aea8dfb7041");
    ("gen-smoke/49", "7e7014cab6e077a0");
    ("gen-smoke/50", "47ee9c307d98080f");
    ("gen-smoke/51", "fa99881a9cd88e2e");
    ("gen-smoke/52", "2a11562da1ae3e4d");
    ("gen-smoke/53", "6537cf9764295824");
    ("gen-smoke/54", "3e2e8809fe2bbec2");
    ("gen-smoke/55", "481011ff1ae79f54");
    ("gen-smoke/56", "85d3c1471f7f8d2d");
    ("gen-smoke/57", "a49f68c941660078");
    ("gen-smoke/58", "f9d260e9a4eeaedc");
    ("gen-smoke/59", "219d4115d9fec286");
    ("gen-smoke/60", "cd8d9cc6142ef530");
    ("gen-smoke/61", "0d2f51e90e2fef91");
    ("gen-smoke/62", "84b98e3b1c267171");
    ("gen-smoke/63", "51f8de3bf1b7a963");
    ("gen-smoke/64", "f821508dc3f42c30");
    ("gen-smoke/65", "b6691cf66afc41ed");
    ("gen-smoke/66", "cdc5e8afb7ed07bb");
    ("gen-smoke/67", "997a4119d9f45581");
    ("gen-smoke/68", "4f6266c42a247c22");
    ("gen-smoke/69", "e9b96066f31721ca");
    ("gen-smoke/70", "aebe1f1564cd50ef");
    ("gen-smoke/71", "a6e071596093b793");
    ("gen-smoke/72", "7e2c67155ad60f75");
    ("gen-smoke/73", "c2e92a75d28e564e");
    ("gen-smoke/74", "8e8f8a21019de1b8");
    ("gen-smoke/75", "46fa4838ef5b58cf");
    ("gen-smoke/76", "fc4e720708361acd");
    ("gen-smoke/77", "9d0f6c2beec2db16");
    ("gen-smoke/78", "cd6c4638e3229cd1");
    ("gen-smoke/79", "273f57b6b6766cda");
    ("gen-smoke/80", "c04011a5b7272407");
    ("gen-smoke/81", "ef1962a1ecdb74fa");
    ("gen-smoke/82", "b855012e065ed422");
    ("gen-smoke/83", "a76578d0df5c007e");
    ("gen-smoke/84", "2ad00475622f6dec");
    ("gen-smoke/85", "146f08f42aefecdd");
    ("gen-smoke/86", "76b85d03c286b7b7");
    ("gen-smoke/87", "188b18a150f8e495");
    ("gen-smoke/88", "302e25f122de1cf6");
    ("gen-smoke/89", "b90b20000fe51e70");
    ("gen-smoke/90", "9d6897272433d255");
    ("gen-smoke/91", "cbff1b53211a2012");
    ("gen-smoke/92", "1fcfedbc62fc1fcf");
    ("gen-smoke/93", "438b0650c6511310");
    ("gen-smoke/94", "625146d0b8cdb1c9");
    ("gen-smoke/95", "c0413e7d89ebcc35");
    ("gen-smoke/96", "79744619eeec9763");
    ("gen-smoke/97", "f13d314faf10941b");
    ("gen-smoke/98", "401ba6008aea050a");
    ("gen-smoke/99", "0c52927a785821fc");
    ("gen-default/0", "8f02e81469ae5a84");
    ("gen-default/1", "c6c6cea5d7930e1b");
    ("gen-default/2", "6ad8680e79cbde2b");
    ("gen-default/3", "47ab16886baf6c8e");
    ("gen-default/4", "2bb7fe84431887b0");
    ("gen-default/5", "c336cba66dc40c26");
    ("gen-default/6", "d154143cd72441d4");
    ("gen-default/7", "8c256b375a13b67d");
    ("gen-default/8", "3791c2eea9a8886e");
    ("gen-default/9", "961c1c61f1670190");
    ("gen-default/10", "d32d9c9b5261e918");
    ("gen-default/11", "d9febad9a43b9549");
    ("gen-default/12", "566a1a067e20f40d");
    ("gen-default/13", "d3aa85232330a649");
    ("gen-default/14", "0a7939e865d5b7b8");
    ("gen-default/15", "cc20de37310d61b2");
    ("gen-default/16", "e66b1e38127ec96a");
    ("gen-default/17", "87dcad8726424997");
    ("gen-default/18", "87cdc103ecac6f97");
    ("gen-default/19", "dba21026dfbe0621");
    ("gen-depth5/1", "a2e0abb9e656495c");
    ("gen-depth5/7", "3822490b65b6aa8a");
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
