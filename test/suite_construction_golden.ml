(* Kernel construction, pinned byte for byte: a digest of the printed
   function straight out of Dsl.build_kernel (no pass) for every
   registry kernel, every Mini-HIP program, and a spread of generated
   kernels.  The SSA builder threads predecessors into phi incoming
   lists in predecessor order, completes a sealed block's pending phis
   in a fixed order, and re-checks the users of every phi it removes;
   a change to any of the three changes digests here.  (The order in
   which one removal visits its users cannot show: each removal
   re-checks all of them, so every order reaches the same phis.)  The
   printed IR is also the result cache's content key, so these bytes
   are what keeps existing cache entries valid. *)

open Darm_ir
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module Hip_sources = Darm_kernels.Hip_sources
module Gen = Darm_fuzz.Gen

let digest_of (fs : Ssa.func list) : string =
  let text = String.concat "" (List.map Printer.func_to_string fs) in
  String.sub (Digest.to_hex (Digest.string text)) 0 16

let hip (src : string) : Ssa.func list =
  match Darm_frontend.Lower.compile ~name:"hip" src with
  | Ok m -> m.Ssa.funcs
  | Error e -> failwith ("mini-hip compile error: " ^ e)

let features_of (spec : string) : Gen.features =
  match Gen.features_of_string spec with
  | Ok fs -> fs
  | Error e -> invalid_arg e

let single_features =
  [
    "loops-uniform";
    "loops-divergent";
    "barriers";
    "shared-tile";
    "nested-diamonds";
    "switch-ladders";
  ]

(* A loop whose body restores a variable it conditionally overwrote
   with its entry value: the first join phi reads the header's
   incomplete phi and each later one the join phi before it.  Sealing
   the header finds its phi trivial, and the removal cascades through
   all three join phis.  None of the other subjects reaches a cascade
   that removes anything. *)
let cascade () : Ssa.func =
  Dsl.build_kernel ~name:"cascade"
    ~params:[ ("a", Types.Ptr Types.Global) ]
    (fun ctx params ->
      let a = List.hd params in
      let t = Dsl.tid ctx in
      let x = Dsl.local ctx ~name:"x" Types.I32 in
      Dsl.set ctx x (Dsl.i32 1);
      Dsl.for_up ctx ~from:(Dsl.i32 0) ~until:(Dsl.i32 4) (fun i ->
          let saved = Dsl.get ctx x in
          Dsl.if_then ctx (Dsl.slt ctx t (Dsl.i32 3)) (fun () ->
              Dsl.set ctx x (Dsl.i32 1));
          Dsl.if_then ctx (Dsl.slt ctx t i) (fun () ->
              Dsl.set ctx x (Dsl.i32 1));
          Dsl.store ctx (Dsl.get ctx x) (Dsl.gep ctx a t);
          Dsl.if_then ctx (Dsl.sgt ctx t i) (fun () ->
              Dsl.set ctx x (Dsl.i32 1));
          Dsl.store ctx (Dsl.get ctx x) (Dsl.gep ctx a (Dsl.add ctx t i));
          Dsl.set ctx x saved);
      Dsl.store ctx (Dsl.get ctx x) (Dsl.gep ctx a t))

(* (name, thunk building the functions) for every pinned subject *)
let subjects () : (string * (unit -> Ssa.func list)) list =
  let registry =
    List.concat_map
      (fun (k : Kernel.t) ->
        List.map
          (fun bs ->
            ( Printf.sprintf "%s/bs%d" k.Kernel.tag bs,
              fun () ->
                [
                  (k.Kernel.make ~seed:1 ~block_size:bs ~n:k.Kernel.default_n)
                    .Kernel.func;
                ] ))
          k.Kernel.block_sizes)
      (Registry.all @ Registry.negative)
  in
  let hip_programs =
    List.map
      (fun (tag, src) -> (Printf.sprintf "hip/%s" tag, fun () -> hip src))
      Hip_sources.all
  in
  let gen label (cfg : Gen.cfg) features seeds =
    let cfg = { cfg with Gen.features = features_of features } in
    List.map
      (fun seed ->
        ( Printf.sprintf "gen-%s-%s/%d" label features seed,
          fun () -> [ Gen.generate ~cfg ~seed () ] ))
      seeds
  in
  let large_cfg = { Gen.default_cfg with Gen.max_depth = 5 } in
  registry @ hip_programs
  @ [ ("dsl/cascade", fun () -> [ cascade () ]) ]
  @ List.concat_map
      (fun fs ->
        gen "smoke" Gen.smoke_cfg fs (Testlib.seeds 0 199)
        @ gen "default" Gen.default_cfg fs (Testlib.seeds 0 49))
      [ "all"; "none" ]
  @ List.concat_map
      (fun fs -> gen "smoke" Gen.smoke_cfg fs (Testlib.seeds 0 19))
      single_features
  @ gen "depth5" large_cfg "all" [ 1; 7 ]

(* Recorded before Dsl kept predecessor lists and phi users
   incrementally (it rebuilt the predecessor table per read and scanned
   the whole function per trivial phi). *)
let golden : (string * string) list =
  [
    ("SB1/bs64", "e60b2d91367e0782");
    ("SB1/bs128", "128c61e67028ac7d");
    ("SB1/bs256", "046341c441c8fec5");
    ("SB1/bs512", "93234a33a507c628");
    ("SB1/bs1024", "fbedfab12f3b1535");
    ("SB2/bs64", "f92a34e40856d8c0");
    ("SB2/bs128", "e4413c7c3d7b8283");
    ("SB2/bs256", "a6fef054f5d5007d");
    ("SB2/bs512", "644d0aa895b78ab4");
    ("SB2/bs1024", "bdc011a23d9f8abb");
    ("SB3/bs64", "af7dc9c38b3eeaf8");
    ("SB3/bs128", "f460a640b29897da");
    ("SB3/bs256", "9d16f4fa6cdc430e");
    ("SB3/bs512", "066f3da00e7dab6b");
    ("SB3/bs1024", "749fe5a30b66f045");
    ("SB1-R/bs64", "bdbe96dc66655aab");
    ("SB1-R/bs128", "ec12da83510f2db2");
    ("SB1-R/bs256", "34b0e2b2f08a61be");
    ("SB1-R/bs512", "18b929c6ddf4b72c");
    ("SB1-R/bs1024", "edcc568ecea380e4");
    ("SB2-R/bs64", "ce920aba7a84ebcc");
    ("SB2-R/bs128", "4c554b454ac7039e");
    ("SB2-R/bs256", "2f5f14529134f02a");
    ("SB2-R/bs512", "e39a642c8a6a5267");
    ("SB2-R/bs1024", "54eb4842b0b53acd");
    ("SB3-R/bs64", "4bf77d83af44539d");
    ("SB3-R/bs128", "a9e1897d55843a26");
    ("SB3-R/bs256", "cecb340dd62c041f");
    ("SB3-R/bs512", "b29fe8a26958cadb");
    ("SB3-R/bs1024", "8d1c8ffd24d7a826");
    ("LUD/bs16", "aaab15a3b16594ba");
    ("LUD/bs32", "1c4f5ba55db72ef3");
    ("LUD/bs64", "f2e66852c8b270ac");
    ("LUD/bs128", "d88ab793728f4b05");
    ("LUD/bs256", "8fed3831e46258b6");
    ("BIT/bs64", "4e056fb0a9d9e83f");
    ("BIT/bs128", "8af84a497ef6dafb");
    ("BIT/bs256", "963f094d60e0ea1c");
    ("BIT/bs512", "7eb8f31c006ddb31");
    ("BIT/bs1024", "284698c281ac210f");
    ("DCT/bs64", "4d6d16149c855fed");
    ("DCT/bs128", "4d6d16149c855fed");
    ("DCT/bs256", "4d6d16149c855fed");
    ("DCT/bs512", "4d6d16149c855fed");
    ("DCT/bs1024", "4d6d16149c855fed");
    ("MS/bs64", "d8d3b373255d3a0c");
    ("MS/bs128", "ab7858a95cf618ea");
    ("MS/bs256", "b3814bd6b893dd87");
    ("MS/bs512", "a90fffbfad567cff");
    ("PCM/bs64", "2deafceb6b0cecfc");
    ("PCM/bs128", "fd5bdbe980334251");
    ("PCM/bs256", "e73fc4fc0a2d828f");
    ("PCM/bs512", "629d90d49194f86c");
    ("IDENT/bs64", "09d04860349f3295");
    ("IDENT/bs128", "09d04860349f3295");
    ("IDENT/bs256", "09d04860349f3295");
    ("FLAT/bs64", "01696b990ddbf4f8");
    ("FLAT/bs128", "02417d34f95954cb");
    ("FLAT/bs256", "c931f757e807e15e");
    ("FDCT/bs64", "bb1c25bb56358eea");
    ("FDCT/bs128", "bb1c25bb56358eea");
    ("FDCT/bs256", "bb1c25bb56358eea");
    ("XBAR/bs64", "e272f74290a25748");
    ("XRACE/bs64", "3557c1730a13ced7");
    ("XRW/bs64", "d4d14e3302cbff4c");
    ("hip/SB1", "a3e2ef6d890981de");
    ("hip/SB1-R", "6210dd3d577af11f");
    ("hip/SB2", "c1b328af88e53853");
    ("hip/SB2-R", "180330fdd543725a");
    ("hip/SB3", "49d7ce48c22ef623");
    ("hip/SB3-R", "0d8b92789a2b0277");
    ("hip/BIT", "252b5c6feffb53c5");
    ("hip/DCT", "2ac6486d1c2ebeca");
    ("hip/MS", "47616bef16c009c7");
    ("hip/LUD", "2804c0cf3f1647a2");
    ("hip/PCM", "0d19f74deeebf878");
    ("hip/FDCT", "687cfb552d15ca43");
    ("dsl/cascade", "d96decc5df0d2eab");
    ("gen-smoke-all/0", "41c9cdfc57b4878a");
    ("gen-smoke-all/1", "20e50e2d6f7f4878");
    ("gen-smoke-all/2", "84c4f8dd43bd220f");
    ("gen-smoke-all/3", "7c33d13176e1c731");
    ("gen-smoke-all/4", "88f92e1b5e51af61");
    ("gen-smoke-all/5", "a13623650e6e004d");
    ("gen-smoke-all/6", "d4def6954891c9c9");
    ("gen-smoke-all/7", "eff3c632dc7aa67b");
    ("gen-smoke-all/8", "8a1419b4dc7c708d");
    ("gen-smoke-all/9", "1debcdb5313fc569");
    ("gen-smoke-all/10", "ed1e5845e9e97a76");
    ("gen-smoke-all/11", "8ad4423d38954264");
    ("gen-smoke-all/12", "0337b88ae0b0b1d2");
    ("gen-smoke-all/13", "f73ed0276e1b352e");
    ("gen-smoke-all/14", "bff4aa2435a32086");
    ("gen-smoke-all/15", "648c9032b2c93991");
    ("gen-smoke-all/16", "1621a8905e4a89a0");
    ("gen-smoke-all/17", "a2a70239abc4e9d9");
    ("gen-smoke-all/18", "d84eb5cef10c9a4b");
    ("gen-smoke-all/19", "36484fe8705b108c");
    ("gen-smoke-all/20", "516926ec822733e2");
    ("gen-smoke-all/21", "731fb81f973036cf");
    ("gen-smoke-all/22", "4eb038081068d311");
    ("gen-smoke-all/23", "14983c699f276188");
    ("gen-smoke-all/24", "d1db95d9d18a43ca");
    ("gen-smoke-all/25", "ee52d68626ed3a93");
    ("gen-smoke-all/26", "d544407248adaf14");
    ("gen-smoke-all/27", "64829bb132c77820");
    ("gen-smoke-all/28", "3d4afa24689f1121");
    ("gen-smoke-all/29", "89acafceea5003f5");
    ("gen-smoke-all/30", "1ff191196a83084c");
    ("gen-smoke-all/31", "7d4f8ed416bb9de7");
    ("gen-smoke-all/32", "493ad53c4c0526b0");
    ("gen-smoke-all/33", "9f88f5ad2f9ead95");
    ("gen-smoke-all/34", "330b559fe221bbeb");
    ("gen-smoke-all/35", "a4bad9d31da7fa85");
    ("gen-smoke-all/36", "c5ab77f28c8b0f78");
    ("gen-smoke-all/37", "248fc9dbb25a3064");
    ("gen-smoke-all/38", "0b6ef40d06c017b8");
    ("gen-smoke-all/39", "9e605465c743acb8");
    ("gen-smoke-all/40", "e7e80581be435c46");
    ("gen-smoke-all/41", "9df1ce5615ac8e35");
    ("gen-smoke-all/42", "111fa032a9357198");
    ("gen-smoke-all/43", "05bdd8203abcfcd4");
    ("gen-smoke-all/44", "8adf07485ee6ef5a");
    ("gen-smoke-all/45", "af42593f4d686596");
    ("gen-smoke-all/46", "4bf8375e24b2353c");
    ("gen-smoke-all/47", "ae25cbcde7c0ce05");
    ("gen-smoke-all/48", "e2196aea8dfb7041");
    ("gen-smoke-all/49", "cae88a24029e406b");
    ("gen-smoke-all/50", "6eb0adec38709045");
    ("gen-smoke-all/51", "76ce0115e39ada18");
    ("gen-smoke-all/52", "2a11562da1ae3e4d");
    ("gen-smoke-all/53", "6537cf9764295824");
    ("gen-smoke-all/54", "3e2e8809fe2bbec2");
    ("gen-smoke-all/55", "6c973983210251e0");
    ("gen-smoke-all/56", "6f9e0e7cb4821105");
    ("gen-smoke-all/57", "a49f68c941660078");
    ("gen-smoke-all/58", "90dc32ce71f2fc89");
    ("gen-smoke-all/59", "219d4115d9fec286");
    ("gen-smoke-all/60", "f38c475e2889fa9e");
    ("gen-smoke-all/61", "a62154e2b86db605");
    ("gen-smoke-all/62", "dcd05e3835603892");
    ("gen-smoke-all/63", "51f8de3bf1b7a963");
    ("gen-smoke-all/64", "b80e78d9dc3cca42");
    ("gen-smoke-all/65", "b6691cf66afc41ed");
    ("gen-smoke-all/66", "cdc5e8afb7ed07bb");
    ("gen-smoke-all/67", "43401f518d6df428");
    ("gen-smoke-all/68", "c770a6d09acd528a");
    ("gen-smoke-all/69", "4151c8512acd80a4");
    ("gen-smoke-all/70", "0c8a17ab9028ab95");
    ("gen-smoke-all/71", "a6e071596093b793");
    ("gen-smoke-all/72", "5ed270dcdf229bad");
    ("gen-smoke-all/73", "c2e92a75d28e564e");
    ("gen-smoke-all/74", "8e8f8a21019de1b8");
    ("gen-smoke-all/75", "97185c7aa4ae0cce");
    ("gen-smoke-all/76", "fc4e720708361acd");
    ("gen-smoke-all/77", "9d0f6c2beec2db16");
    ("gen-smoke-all/78", "cd6c4638e3229cd1");
    ("gen-smoke-all/79", "273f57b6b6766cda");
    ("gen-smoke-all/80", "c7a3671fcee191ea");
    ("gen-smoke-all/81", "9133450baf493f94");
    ("gen-smoke-all/82", "b855012e065ed422");
    ("gen-smoke-all/83", "71dad9b5e8141f53");
    ("gen-smoke-all/84", "f1a945209f346da9");
    ("gen-smoke-all/85", "146f08f42aefecdd");
    ("gen-smoke-all/86", "566ab00fbbad3aa3");
    ("gen-smoke-all/87", "188b18a150f8e495");
    ("gen-smoke-all/88", "302e25f122de1cf6");
    ("gen-smoke-all/89", "59562272fd15c64d");
    ("gen-smoke-all/90", "9d6897272433d255");
    ("gen-smoke-all/91", "fd07beb3121ebae9");
    ("gen-smoke-all/92", "1fcfedbc62fc1fcf");
    ("gen-smoke-all/93", "438b0650c6511310");
    ("gen-smoke-all/94", "8c35dcd3f88fb5ad");
    ("gen-smoke-all/95", "d287f058306f4f09");
    ("gen-smoke-all/96", "79744619eeec9763");
    ("gen-smoke-all/97", "b64432f88a8e4d67");
    ("gen-smoke-all/98", "0dc0a79d1d1580ec");
    ("gen-smoke-all/99", "f684eae87c6059af");
    ("gen-smoke-all/100", "69666f339d404ebc");
    ("gen-smoke-all/101", "67424c0f90c838ef");
    ("gen-smoke-all/102", "99175f2c4e0ab29a");
    ("gen-smoke-all/103", "9b6ae578a05adc1c");
    ("gen-smoke-all/104", "ab22d9920a888d19");
    ("gen-smoke-all/105", "9a61752568313a09");
    ("gen-smoke-all/106", "0cf36dcc7ed2d9ff");
    ("gen-smoke-all/107", "de5ae32621c3f4fb");
    ("gen-smoke-all/108", "f900dcd09d0d7b1b");
    ("gen-smoke-all/109", "dd26eecfffe0e53e");
    ("gen-smoke-all/110", "ebbc48f38da81dc4");
    ("gen-smoke-all/111", "f833306f36049461");
    ("gen-smoke-all/112", "57f7086f0829b4b8");
    ("gen-smoke-all/113", "d2f33a1ea9cae96c");
    ("gen-smoke-all/114", "965ba42f3be33406");
    ("gen-smoke-all/115", "3342221e8ea91265");
    ("gen-smoke-all/116", "9def28642b58acb8");
    ("gen-smoke-all/117", "f9f74be7cc055986");
    ("gen-smoke-all/118", "8598fffe4b7ebc78");
    ("gen-smoke-all/119", "4f5552d8c7baf692");
    ("gen-smoke-all/120", "7aa9b341f6e2202a");
    ("gen-smoke-all/121", "57e17540a160cec3");
    ("gen-smoke-all/122", "70c9872a10f1f961");
    ("gen-smoke-all/123", "5f40afdcecce7880");
    ("gen-smoke-all/124", "5361af409e4dc377");
    ("gen-smoke-all/125", "f160e6b12b4bf502");
    ("gen-smoke-all/126", "0c6a01f5c4a0dce3");
    ("gen-smoke-all/127", "a9659dcfd5945bf0");
    ("gen-smoke-all/128", "e3eba636e078b24b");
    ("gen-smoke-all/129", "fe8fc74234888724");
    ("gen-smoke-all/130", "04ba4ea9706f303a");
    ("gen-smoke-all/131", "48c7144caf402051");
    ("gen-smoke-all/132", "58f6e1f014422d23");
    ("gen-smoke-all/133", "9e47472bef3fc026");
    ("gen-smoke-all/134", "22739b40da0fc8d2");
    ("gen-smoke-all/135", "a029e4183a289330");
    ("gen-smoke-all/136", "69a7035650608ffd");
    ("gen-smoke-all/137", "89c33eef5144e32e");
    ("gen-smoke-all/138", "68c643f3f5aa0dc4");
    ("gen-smoke-all/139", "76c853442a55ad5b");
    ("gen-smoke-all/140", "942c68dba4f78c03");
    ("gen-smoke-all/141", "09ebf2e7e693a72e");
    ("gen-smoke-all/142", "9967caec4dba135d");
    ("gen-smoke-all/143", "268454b9fb617484");
    ("gen-smoke-all/144", "3fcddb557dddc888");
    ("gen-smoke-all/145", "29a462fe8fd9b359");
    ("gen-smoke-all/146", "d5e6e988db1468f2");
    ("gen-smoke-all/147", "b96ea319ac693d22");
    ("gen-smoke-all/148", "2dbc5a3b9d6e6599");
    ("gen-smoke-all/149", "d6eea1b70a954c98");
    ("gen-smoke-all/150", "ec538e8fa5c0a3b2");
    ("gen-smoke-all/151", "1a4dc2ab8a6929bb");
    ("gen-smoke-all/152", "16befeb1ecb80d63");
    ("gen-smoke-all/153", "58e3eab217142b7f");
    ("gen-smoke-all/154", "24a704f39d2199f3");
    ("gen-smoke-all/155", "7dd16d50c3cdd14c");
    ("gen-smoke-all/156", "887228f66193916b");
    ("gen-smoke-all/157", "8ad93893e367f96c");
    ("gen-smoke-all/158", "eb50fe439751f6d5");
    ("gen-smoke-all/159", "ef3beb90d07cdd22");
    ("gen-smoke-all/160", "1679aa46d7d890ae");
    ("gen-smoke-all/161", "42ff2cd8c30d17f8");
    ("gen-smoke-all/162", "f6c0f6355c9b22af");
    ("gen-smoke-all/163", "d1443fcbb4c9f119");
    ("gen-smoke-all/164", "2cbda5eb07684d78");
    ("gen-smoke-all/165", "a04102c547751553");
    ("gen-smoke-all/166", "61df343f398380f4");
    ("gen-smoke-all/167", "28c1fc649b444750");
    ("gen-smoke-all/168", "51030380c48cc97c");
    ("gen-smoke-all/169", "887437248dfd2013");
    ("gen-smoke-all/170", "e332ed58fc27ed05");
    ("gen-smoke-all/171", "ad9097f20923ef7f");
    ("gen-smoke-all/172", "b220f33139976514");
    ("gen-smoke-all/173", "e5de2b9cd5081492");
    ("gen-smoke-all/174", "4e66fca7233c31af");
    ("gen-smoke-all/175", "716d95ccb2bd3b4e");
    ("gen-smoke-all/176", "becd3ecab5ac5b2a");
    ("gen-smoke-all/177", "f2900c9b2794e58a");
    ("gen-smoke-all/178", "5ae8137281f8290f");
    ("gen-smoke-all/179", "2c1654c42b1361fd");
    ("gen-smoke-all/180", "28ba0f43cafad7fb");
    ("gen-smoke-all/181", "e8ae77eb2064b683");
    ("gen-smoke-all/182", "4efb3e6ca9c7c18b");
    ("gen-smoke-all/183", "2e6621e40b77015c");
    ("gen-smoke-all/184", "a56409b30cd2009c");
    ("gen-smoke-all/185", "948e877abb1e6015");
    ("gen-smoke-all/186", "b85c15acd3ac4284");
    ("gen-smoke-all/187", "19c55da431302c53");
    ("gen-smoke-all/188", "2a5b2d1e1ee588b0");
    ("gen-smoke-all/189", "7da63a957e85a0d5");
    ("gen-smoke-all/190", "580adf2be916211b");
    ("gen-smoke-all/191", "58edb89c0f256d91");
    ("gen-smoke-all/192", "8a258b10b9efa074");
    ("gen-smoke-all/193", "83d26d3a2e2179cd");
    ("gen-smoke-all/194", "4867cf84de120514");
    ("gen-smoke-all/195", "ed4f0621f56d82db");
    ("gen-smoke-all/196", "6572a3264271e6ef");
    ("gen-smoke-all/197", "b359902bab812c4b");
    ("gen-smoke-all/198", "d8a882e8fc9ec0ba");
    ("gen-smoke-all/199", "79bf1399c830be1f");
    ("gen-default-all/0", "e6c07c5a9b0aae25");
    ("gen-default-all/1", "80fc8360c132b8b4");
    ("gen-default-all/2", "31c95f2887eb5182");
    ("gen-default-all/3", "4c420d319b9fa892");
    ("gen-default-all/4", "82356b47d65601cb");
    ("gen-default-all/5", "58fc6cd841b00c3b");
    ("gen-default-all/6", "d154143cd72441d4");
    ("gen-default-all/7", "cacdc44993a4d428");
    ("gen-default-all/8", "f71aab16a12a0a68");
    ("gen-default-all/9", "70baaa723f088491");
    ("gen-default-all/10", "c18e5cddc9b6a26e");
    ("gen-default-all/11", "d9febad9a43b9549");
    ("gen-default-all/12", "79230cbf0fb32f33");
    ("gen-default-all/13", "53dd67a5fb27d288");
    ("gen-default-all/14", "69330e8be4fdcb39");
    ("gen-default-all/15", "9a3b3eefe7116723");
    ("gen-default-all/16", "ad434d47c9f1762b");
    ("gen-default-all/17", "6ae44576e2024f6f");
    ("gen-default-all/18", "87cdc103ecac6f97");
    ("gen-default-all/19", "d83a9a0874c3886d");
    ("gen-default-all/20", "81afa2c58ee8f943");
    ("gen-default-all/21", "2c0eb16483744645");
    ("gen-default-all/22", "9240a216b1c1caf4");
    ("gen-default-all/23", "321243bb61875a72");
    ("gen-default-all/24", "123f1805205e5568");
    ("gen-default-all/25", "0cab6b84c56c2546");
    ("gen-default-all/26", "4d3be5151fa9a9ba");
    ("gen-default-all/27", "6f630418a79934c1");
    ("gen-default-all/28", "48ecf04e81621457");
    ("gen-default-all/29", "468510b303e27cfd");
    ("gen-default-all/30", "28265c4dd3571ac6");
    ("gen-default-all/31", "8436d549504e1fcc");
    ("gen-default-all/32", "a391e4bc6daa8bb5");
    ("gen-default-all/33", "15c36a64af25ff89");
    ("gen-default-all/34", "7134fc0ddf964699");
    ("gen-default-all/35", "2a0670801cf318f8");
    ("gen-default-all/36", "47f917c071f243d5");
    ("gen-default-all/37", "1e3c7bd7fca3ea42");
    ("gen-default-all/38", "100203f1b15c7a15");
    ("gen-default-all/39", "f4732d170631d7cc");
    ("gen-default-all/40", "84a49553678a07c7");
    ("gen-default-all/41", "b70685a23e3865e4");
    ("gen-default-all/42", "563001d279ee975c");
    ("gen-default-all/43", "838d2e963f5fa4dc");
    ("gen-default-all/44", "65d5d5cad99ae674");
    ("gen-default-all/45", "f78b4e76a9020e0c");
    ("gen-default-all/46", "69ec470091c48e22");
    ("gen-default-all/47", "f7f5df7d02498060");
    ("gen-default-all/48", "194231c62f69b634");
    ("gen-default-all/49", "1c282cae728547dc");
    ("gen-smoke-none/0", "6546a330536e857c");
    ("gen-smoke-none/1", "e9f293995bac986d");
    ("gen-smoke-none/2", "aa4803775da99104");
    ("gen-smoke-none/3", "0db54bea3301f26f");
    ("gen-smoke-none/4", "222462f8469d3ac9");
    ("gen-smoke-none/5", "7b3eed72e02a2dc5");
    ("gen-smoke-none/6", "d857eb7af24be243");
    ("gen-smoke-none/7", "6cc7c1af7f2e95a3");
    ("gen-smoke-none/8", "fa04920c0a236a20");
    ("gen-smoke-none/9", "6383e633c5c3f0ab");
    ("gen-smoke-none/10", "ce1322e0b4f7e6ee");
    ("gen-smoke-none/11", "e2bfb6d41ea0476b");
    ("gen-smoke-none/12", "821fbcdb16128a00");
    ("gen-smoke-none/13", "e1d7a142170c0af5");
    ("gen-smoke-none/14", "241f7e3b7228e064");
    ("gen-smoke-none/15", "6ede9c1acd9a9c39");
    ("gen-smoke-none/16", "63218b869e90bd0e");
    ("gen-smoke-none/17", "96d5f75d65f91463");
    ("gen-smoke-none/18", "59761c5523979aa6");
    ("gen-smoke-none/19", "e052b027cec6c332");
    ("gen-smoke-none/20", "d19326fae1a1712f");
    ("gen-smoke-none/21", "4233b962591086cf");
    ("gen-smoke-none/22", "048ef940dbd8ef64");
    ("gen-smoke-none/23", "4a3813b6989d0eb6");
    ("gen-smoke-none/24", "5826ab1634a721cd");
    ("gen-smoke-none/25", "a1ae04cbf79e9696");
    ("gen-smoke-none/26", "dc0d1a338826f42f");
    ("gen-smoke-none/27", "ec005a69c7eff6a1");
    ("gen-smoke-none/28", "b646f86fee47558e");
    ("gen-smoke-none/29", "9a65487ef383e55b");
    ("gen-smoke-none/30", "11fa694de9ea44d1");
    ("gen-smoke-none/31", "11f1f6d2db5e8554");
    ("gen-smoke-none/32", "149c3cbf2029ac1c");
    ("gen-smoke-none/33", "61003b2dc6918f73");
    ("gen-smoke-none/34", "0cbcd8a7375af27c");
    ("gen-smoke-none/35", "bc713ce44ca6b58a");
    ("gen-smoke-none/36", "40d2c07887e4124a");
    ("gen-smoke-none/37", "f1de1d33a3d09281");
    ("gen-smoke-none/38", "55808cb49310c328");
    ("gen-smoke-none/39", "ab5cfc71a2bb25b1");
    ("gen-smoke-none/40", "33ad8bd2a28aacba");
    ("gen-smoke-none/41", "13466c48125aa7b4");
    ("gen-smoke-none/42", "027e81080e635c71");
    ("gen-smoke-none/43", "b63e1a6e4379aa53");
    ("gen-smoke-none/44", "02f7830cca4822b0");
    ("gen-smoke-none/45", "f1671febc3e2571a");
    ("gen-smoke-none/46", "702ecd19d0bd65af");
    ("gen-smoke-none/47", "670d72c0d2a03c26");
    ("gen-smoke-none/48", "adb604baec839305");
    ("gen-smoke-none/49", "52c91fffafbb2a67");
    ("gen-smoke-none/50", "2f55f347ee2d81b0");
    ("gen-smoke-none/51", "fabe969ebb42c41e");
    ("gen-smoke-none/52", "334c9068d5c57f4e");
    ("gen-smoke-none/53", "b81a5acee3266a23");
    ("gen-smoke-none/54", "5a39d14f7493d857");
    ("gen-smoke-none/55", "17d749047e17b567");
    ("gen-smoke-none/56", "cd172bb093708c96");
    ("gen-smoke-none/57", "c83eec80b46eec8a");
    ("gen-smoke-none/58", "db48ab83b51817d1");
    ("gen-smoke-none/59", "fa307379b1bf640d");
    ("gen-smoke-none/60", "dd3c96f4c310a38e");
    ("gen-smoke-none/61", "5543a68c55196176");
    ("gen-smoke-none/62", "8dcf778eb2dea48d");
    ("gen-smoke-none/63", "320fb2d966284bec");
    ("gen-smoke-none/64", "0422852f3bc659a9");
    ("gen-smoke-none/65", "f08923fea17de72c");
    ("gen-smoke-none/66", "14de4fb31e565b9b");
    ("gen-smoke-none/67", "d013e0d873686cc9");
    ("gen-smoke-none/68", "6a9863fdd660f3cd");
    ("gen-smoke-none/69", "0f4658a8c1651898");
    ("gen-smoke-none/70", "74ea84f0a7821955");
    ("gen-smoke-none/71", "91b85262a1b3deb7");
    ("gen-smoke-none/72", "3c48e0e0185ff4cf");
    ("gen-smoke-none/73", "7dd0b16088e0d06c");
    ("gen-smoke-none/74", "48d8e4d93c501200");
    ("gen-smoke-none/75", "35cb155120282582");
    ("gen-smoke-none/76", "e11345de4d2c649d");
    ("gen-smoke-none/77", "6535d0f4c63f57c1");
    ("gen-smoke-none/78", "0dde6c1601625836");
    ("gen-smoke-none/79", "659612ced5376832");
    ("gen-smoke-none/80", "0c7be5eed63f1d14");
    ("gen-smoke-none/81", "2153102c9c64fb3f");
    ("gen-smoke-none/82", "dd152fced929e95c");
    ("gen-smoke-none/83", "1253cbe3525c2c4d");
    ("gen-smoke-none/84", "b6a3315a7f40767a");
    ("gen-smoke-none/85", "8609d8569bffcb1d");
    ("gen-smoke-none/86", "87238195d324625a");
    ("gen-smoke-none/87", "f8300177dc7b48eb");
    ("gen-smoke-none/88", "b49bb44333880803");
    ("gen-smoke-none/89", "a99ef71307704fcf");
    ("gen-smoke-none/90", "93bccce684e90706");
    ("gen-smoke-none/91", "a4e74c27d8eb4ece");
    ("gen-smoke-none/92", "e26d4906b5141770");
    ("gen-smoke-none/93", "65b4463c4836ee35");
    ("gen-smoke-none/94", "3204243480f448d8");
    ("gen-smoke-none/95", "9849cfc5fc5311a3");
    ("gen-smoke-none/96", "3de045e341a0b615");
    ("gen-smoke-none/97", "a7dff9b4202c45f7");
    ("gen-smoke-none/98", "21f92a3f0086bc8b");
    ("gen-smoke-none/99", "0d3b9239510de72d");
    ("gen-smoke-none/100", "93e198755f920234");
    ("gen-smoke-none/101", "dea8540e0d71b23f");
    ("gen-smoke-none/102", "9d8f00741553baf6");
    ("gen-smoke-none/103", "b40086e38af2151a");
    ("gen-smoke-none/104", "b193e6ef83f0ed28");
    ("gen-smoke-none/105", "a1e4f03a77eb5c07");
    ("gen-smoke-none/106", "de1aca2c37a0bdd6");
    ("gen-smoke-none/107", "c19b3ed0cbb22e27");
    ("gen-smoke-none/108", "b3a6c97bfbe7ad57");
    ("gen-smoke-none/109", "dcb4a5529d8b38e1");
    ("gen-smoke-none/110", "5186620326a3703a");
    ("gen-smoke-none/111", "8968a2366f91a8d8");
    ("gen-smoke-none/112", "be01168f39b0d3a1");
    ("gen-smoke-none/113", "1a57106e0e45e5f3");
    ("gen-smoke-none/114", "9d9e6257363e9093");
    ("gen-smoke-none/115", "3ffcc2804221a3c6");
    ("gen-smoke-none/116", "6695e3d9a7fcdb7b");
    ("gen-smoke-none/117", "7d19ce61e6dbd021");
    ("gen-smoke-none/118", "ddcf1fa6a8c04062");
    ("gen-smoke-none/119", "f41fe6f51bdd46ed");
    ("gen-smoke-none/120", "553c8d8685838da0");
    ("gen-smoke-none/121", "2e952284d4a05892");
    ("gen-smoke-none/122", "f178dbe93fde04e8");
    ("gen-smoke-none/123", "dab233de4e1895d0");
    ("gen-smoke-none/124", "bd5046b60c25dfff");
    ("gen-smoke-none/125", "7ba670666a47a206");
    ("gen-smoke-none/126", "5a73c8f099d12712");
    ("gen-smoke-none/127", "8387c40bbe4cb4db");
    ("gen-smoke-none/128", "553c0300ac042039");
    ("gen-smoke-none/129", "45c9d3c79357bc56");
    ("gen-smoke-none/130", "aedb7a67251a2b3e");
    ("gen-smoke-none/131", "cc3b4738465cb097");
    ("gen-smoke-none/132", "44fa409b6be57cb3");
    ("gen-smoke-none/133", "2ee84929bfd014a8");
    ("gen-smoke-none/134", "fffa1dea4c162d30");
    ("gen-smoke-none/135", "96e569297f4a8727");
    ("gen-smoke-none/136", "19c756e7cb8bb4b4");
    ("gen-smoke-none/137", "6e8a50c83fdadfde");
    ("gen-smoke-none/138", "e9fc39b655ad0bfd");
    ("gen-smoke-none/139", "2e1b8b1a45c27f51");
    ("gen-smoke-none/140", "5659154715e072dc");
    ("gen-smoke-none/141", "ac5582b7b7e86041");
    ("gen-smoke-none/142", "8250cb663354e04b");
    ("gen-smoke-none/143", "9c343aed104f0f5d");
    ("gen-smoke-none/144", "9225baa6f77afec6");
    ("gen-smoke-none/145", "d3b92601e6144a21");
    ("gen-smoke-none/146", "86b01b0995cd2040");
    ("gen-smoke-none/147", "9337139827104d51");
    ("gen-smoke-none/148", "ae3139518dbd6281");
    ("gen-smoke-none/149", "cfa638d47e300eb9");
    ("gen-smoke-none/150", "1927b0aa171ae887");
    ("gen-smoke-none/151", "7a2ba19c0498b376");
    ("gen-smoke-none/152", "c5877affe062e5e1");
    ("gen-smoke-none/153", "3e6eb55b7998913b");
    ("gen-smoke-none/154", "9767cdd2bfd8afa6");
    ("gen-smoke-none/155", "4c52410e496d4fe7");
    ("gen-smoke-none/156", "9ea3a5120b457340");
    ("gen-smoke-none/157", "cf11618aed19c4b9");
    ("gen-smoke-none/158", "23f95b13dc744abe");
    ("gen-smoke-none/159", "22de946a2860f5fd");
    ("gen-smoke-none/160", "33c3ceabfb5f3880");
    ("gen-smoke-none/161", "ae4898bf335879a9");
    ("gen-smoke-none/162", "c58df3575f3d1898");
    ("gen-smoke-none/163", "d4b29cfb50677586");
    ("gen-smoke-none/164", "0f2cfb1b3604fc59");
    ("gen-smoke-none/165", "1cb7a8a17ca3d589");
    ("gen-smoke-none/166", "a70020ae83c3597b");
    ("gen-smoke-none/167", "0e9c0e688ac1cfa0");
    ("gen-smoke-none/168", "e26d2699f2467c03");
    ("gen-smoke-none/169", "7885f08d649659ea");
    ("gen-smoke-none/170", "2debb15e7ea1bf59");
    ("gen-smoke-none/171", "9078f81d76bc2592");
    ("gen-smoke-none/172", "869d80fc5cf9535f");
    ("gen-smoke-none/173", "0bfc7aabcfe68f55");
    ("gen-smoke-none/174", "38f0e3f68a93cea2");
    ("gen-smoke-none/175", "12ccc6b46cfeab5b");
    ("gen-smoke-none/176", "c23ddd8adae93325");
    ("gen-smoke-none/177", "6ed9c87767fe4881");
    ("gen-smoke-none/178", "5bdbb97e0122b526");
    ("gen-smoke-none/179", "c87c17aff6a9dfe4");
    ("gen-smoke-none/180", "a562b1acc66f3665");
    ("gen-smoke-none/181", "e19100c420a76224");
    ("gen-smoke-none/182", "cbe11cb41dda4b64");
    ("gen-smoke-none/183", "af3330bf603dee48");
    ("gen-smoke-none/184", "be175715457912f0");
    ("gen-smoke-none/185", "dfdf69a09d292693");
    ("gen-smoke-none/186", "758b1a6c652a12a7");
    ("gen-smoke-none/187", "fd1a91b741694cb5");
    ("gen-smoke-none/188", "cd8cb883f4254d62");
    ("gen-smoke-none/189", "44305971ea35bd6e");
    ("gen-smoke-none/190", "42930298254dce63");
    ("gen-smoke-none/191", "e17570af446dae73");
    ("gen-smoke-none/192", "6962cbb5a3409a35");
    ("gen-smoke-none/193", "a31a943a0991870c");
    ("gen-smoke-none/194", "2e80c36d4fb5031a");
    ("gen-smoke-none/195", "c7ac65a40747358e");
    ("gen-smoke-none/196", "d2a40e5de73f77fb");
    ("gen-smoke-none/197", "de75889f3e077456");
    ("gen-smoke-none/198", "2660e957140a668a");
    ("gen-smoke-none/199", "1f46b57527b52d54");
    ("gen-default-none/0", "17cc1ff62e457734");
    ("gen-default-none/1", "3e485178dd4ea7a1");
    ("gen-default-none/2", "6e7dd75ad472583e");
    ("gen-default-none/3", "4f2caa37c847b490");
    ("gen-default-none/4", "7dce782b03a2801f");
    ("gen-default-none/5", "c3eacdf0b4ddd3c0");
    ("gen-default-none/6", "1e0e9444c470dfd8");
    ("gen-default-none/7", "7719aa708bd04a76");
    ("gen-default-none/8", "6cb68b92d6ce140e");
    ("gen-default-none/9", "3a94fc92d771e243");
    ("gen-default-none/10", "c8b5dcbca807fc98");
    ("gen-default-none/11", "33be9428658c0f81");
    ("gen-default-none/12", "a03861e6302154da");
    ("gen-default-none/13", "3e3a9235ca4f4e0d");
    ("gen-default-none/14", "b263d827daaed015");
    ("gen-default-none/15", "fad7e0c94f33b812");
    ("gen-default-none/16", "63218b869e90bd0e");
    ("gen-default-none/17", "329dea9bb8b61246");
    ("gen-default-none/18", "0e7e263658656de2");
    ("gen-default-none/19", "06cf0238ea031402");
    ("gen-default-none/20", "e9056caeb10847b1");
    ("gen-default-none/21", "9fd8571d1a73d7b2");
    ("gen-default-none/22", "94206311a36325ed");
    ("gen-default-none/23", "61def7a7db823d63");
    ("gen-default-none/24", "89ed387c0a7b6886");
    ("gen-default-none/25", "523bf6a458b938b9");
    ("gen-default-none/26", "2889eab9d0953978");
    ("gen-default-none/27", "97b0e2a3b26a75f3");
    ("gen-default-none/28", "4d96dae40ec9545f");
    ("gen-default-none/29", "29d66b3e94f06b8f");
    ("gen-default-none/30", "513eee61af993bfd");
    ("gen-default-none/31", "a9726f95ff95c705");
    ("gen-default-none/32", "80490f57e2101f6d");
    ("gen-default-none/33", "4ff0fffdc939d5e4");
    ("gen-default-none/34", "5fd9360898540c08");
    ("gen-default-none/35", "7d3fbc9edc882cee");
    ("gen-default-none/36", "8d57b1200b0fa22f");
    ("gen-default-none/37", "6f6796cedfdc0af9");
    ("gen-default-none/38", "08c48ca05c54218d");
    ("gen-default-none/39", "b35106712fbc581f");
    ("gen-default-none/40", "606d506cfeff9e03");
    ("gen-default-none/41", "e018f37203401fde");
    ("gen-default-none/42", "f5d6de7cfc00f9ef");
    ("gen-default-none/43", "32372dcae22d8478");
    ("gen-default-none/44", "4bf8688639aefed6");
    ("gen-default-none/45", "704d022ee491707b");
    ("gen-default-none/46", "c6810e03a3e0fff7");
    ("gen-default-none/47", "88e642e2d3f056fe");
    ("gen-default-none/48", "ee3497dcf8c1ef2e");
    ("gen-default-none/49", "a632cd34bcb5fbb6");
    ("gen-smoke-loops-uniform/0", "f455d5defe20480e");
    ("gen-smoke-loops-uniform/1", "0a13839aa4b31cdb");
    ("gen-smoke-loops-uniform/2", "ef4df68333a4716f");
    ("gen-smoke-loops-uniform/3", "5226bce3605a7420");
    ("gen-smoke-loops-uniform/4", "d96465dc9947c6c9");
    ("gen-smoke-loops-uniform/5", "1a2ddaca8cd7fb5e");
    ("gen-smoke-loops-uniform/6", "6c256a5a6021b054");
    ("gen-smoke-loops-uniform/7", "e68e6cca01b3617d");
    ("gen-smoke-loops-uniform/8", "c9612fd36f7f228f");
    ("gen-smoke-loops-uniform/9", "a5f2ee3f040d5824");
    ("gen-smoke-loops-uniform/10", "7fb28e597a486bf7");
    ("gen-smoke-loops-uniform/11", "18c41fb4bfa6c725");
    ("gen-smoke-loops-uniform/12", "8c66f0c5b2a6cbcc");
    ("gen-smoke-loops-uniform/13", "a4622ba523719f75");
    ("gen-smoke-loops-uniform/14", "0edd1f9bf30ef141");
    ("gen-smoke-loops-uniform/15", "7af328179ac5480f");
    ("gen-smoke-loops-uniform/16", "2107ee1c1456056f");
    ("gen-smoke-loops-uniform/17", "04b830e2ebadae49");
    ("gen-smoke-loops-uniform/18", "a39c12d91e38a478");
    ("gen-smoke-loops-uniform/19", "75a709042097b59c");
    ("gen-smoke-loops-divergent/0", "a91da7f4812c88ad");
    ("gen-smoke-loops-divergent/1", "0a13839aa4b31cdb");
    ("gen-smoke-loops-divergent/2", "8df0e4ff4ca2284a");
    ("gen-smoke-loops-divergent/3", "f0d2bceed9395c62");
    ("gen-smoke-loops-divergent/4", "361d5858915ac0e1");
    ("gen-smoke-loops-divergent/5", "1a2ddaca8cd7fb5e");
    ("gen-smoke-loops-divergent/6", "3617e33f45621d2c");
    ("gen-smoke-loops-divergent/7", "d83f34c64172a00c");
    ("gen-smoke-loops-divergent/8", "706f2803ed431601");
    ("gen-smoke-loops-divergent/9", "cf08dcb553e0b9e7");
    ("gen-smoke-loops-divergent/10", "7fb28e597a486bf7");
    ("gen-smoke-loops-divergent/11", "4b48e5dd7a19bd42");
    ("gen-smoke-loops-divergent/12", "3c69f5f3526a1d88");
    ("gen-smoke-loops-divergent/13", "a4622ba523719f75");
    ("gen-smoke-loops-divergent/14", "ff4e2ad902a76ac1");
    ("gen-smoke-loops-divergent/15", "ddba652ae87cdeda");
    ("gen-smoke-loops-divergent/16", "9a4171d8d5606fcd");
    ("gen-smoke-loops-divergent/17", "04b830e2ebadae49");
    ("gen-smoke-loops-divergent/18", "1c7d442d2c4447e6");
    ("gen-smoke-loops-divergent/19", "75a709042097b59c");
    ("gen-smoke-barriers/0", "daa68d3a6bf25a52");
    ("gen-smoke-barriers/1", "7faa0c4ab845d726");
    ("gen-smoke-barriers/2", "bda5a9777cd077f8");
    ("gen-smoke-barriers/3", "20ad36fff2db90c3");
    ("gen-smoke-barriers/4", "887b486e0dbc2702");
    ("gen-smoke-barriers/5", "76498d4c38313c85");
    ("gen-smoke-barriers/6", "8a21437cbcb3ed0d");
    ("gen-smoke-barriers/7", "a16cdd0580061ea5");
    ("gen-smoke-barriers/8", "5dd479193df00098");
    ("gen-smoke-barriers/9", "1fd150aed5fcf64c");
    ("gen-smoke-barriers/10", "9d9d24551f839917");
    ("gen-smoke-barriers/11", "d9fe20a7a08bac72");
    ("gen-smoke-barriers/12", "58efe156b2fd6c28");
    ("gen-smoke-barriers/13", "7704df99711f291d");
    ("gen-smoke-barriers/14", "2bfc9df909033a0d");
    ("gen-smoke-barriers/15", "e72a686ccf79c6ae");
    ("gen-smoke-barriers/16", "eaf81e0e704e132f");
    ("gen-smoke-barriers/17", "5deeebe96f14a256");
    ("gen-smoke-barriers/18", "9e9cbebee70833e8");
    ("gen-smoke-barriers/19", "f3c122854f4e8841");
    ("gen-smoke-shared-tile/0", "9edd2ace70f1b06f");
    ("gen-smoke-shared-tile/1", "6e7137839350a4bf");
    ("gen-smoke-shared-tile/2", "5b61cfaf26f8ccde");
    ("gen-smoke-shared-tile/3", "51977f14999c8801");
    ("gen-smoke-shared-tile/4", "5c9cdb7c227b20fa");
    ("gen-smoke-shared-tile/5", "f657f4655bd71d4e");
    ("gen-smoke-shared-tile/6", "487e4b8ed248ae22");
    ("gen-smoke-shared-tile/7", "9e874595ec96f6dd");
    ("gen-smoke-shared-tile/8", "15c805e3c4046df4");
    ("gen-smoke-shared-tile/9", "6dfdd44869fe45fc");
    ("gen-smoke-shared-tile/10", "2e88a95195296486");
    ("gen-smoke-shared-tile/11", "7fae71d36ed21fdb");
    ("gen-smoke-shared-tile/12", "6e7c4a9aee7af6c9");
    ("gen-smoke-shared-tile/13", "2c6a6a6fb748bb04");
    ("gen-smoke-shared-tile/14", "a3e8d069222457a6");
    ("gen-smoke-shared-tile/15", "54b089d192b0c031");
    ("gen-smoke-shared-tile/16", "307d9fe3fc033f3a");
    ("gen-smoke-shared-tile/17", "7273fa10a7e144f2");
    ("gen-smoke-shared-tile/18", "041eac55e3e6d4da");
    ("gen-smoke-shared-tile/19", "e408273d1717371b");
    ("gen-smoke-nested-diamonds/0", "e1defac63020bb18");
    ("gen-smoke-nested-diamonds/1", "31430ec450e36ca9");
    ("gen-smoke-nested-diamonds/2", "ab265ec55a9eeb0d");
    ("gen-smoke-nested-diamonds/3", "b4a0fead934aecef");
    ("gen-smoke-nested-diamonds/4", "5823cef6d4ef5187");
    ("gen-smoke-nested-diamonds/5", "7c0cac00bf07d066");
    ("gen-smoke-nested-diamonds/6", "5ac6a1e65eee5f8b");
    ("gen-smoke-nested-diamonds/7", "6cc7c1af7f2e95a3");
    ("gen-smoke-nested-diamonds/8", "df211079515d45b5");
    ("gen-smoke-nested-diamonds/9", "e983b001c5b47654");
    ("gen-smoke-nested-diamonds/10", "2d7e3d22aada8fb2");
    ("gen-smoke-nested-diamonds/11", "e2bfb6d41ea0476b");
    ("gen-smoke-nested-diamonds/12", "466c28150d5f0296");
    ("gen-smoke-nested-diamonds/13", "cef2fd1b17f37c34");
    ("gen-smoke-nested-diamonds/14", "241f7e3b7228e064");
    ("gen-smoke-nested-diamonds/15", "72803fa807c2bc10");
    ("gen-smoke-nested-diamonds/16", "e41629a6e5237678");
    ("gen-smoke-nested-diamonds/17", "eb02f7e688d30e57");
    ("gen-smoke-nested-diamonds/18", "59761c5523979aa6");
    ("gen-smoke-nested-diamonds/19", "a354665743724dfc");
    ("gen-smoke-switch-ladders/0", "a25edb87bbe9d49f");
    ("gen-smoke-switch-ladders/1", "0a13839aa4b31cdb");
    ("gen-smoke-switch-ladders/2", "413eacd54ef3d789");
    ("gen-smoke-switch-ladders/3", "cc22df3b28ad47f5");
    ("gen-smoke-switch-ladders/4", "376c1b1232b1eb8d");
    ("gen-smoke-switch-ladders/5", "1a2ddaca8cd7fb5e");
    ("gen-smoke-switch-ladders/6", "9f2548db522fe935");
    ("gen-smoke-switch-ladders/7", "18cf16073fd578a0");
    ("gen-smoke-switch-ladders/8", "12c1bbfa2e3e8a74");
    ("gen-smoke-switch-ladders/9", "15bfa4c2ec34c516");
    ("gen-smoke-switch-ladders/10", "7fb28e597a486bf7");
    ("gen-smoke-switch-ladders/11", "d9be148aa0f5e9c8");
    ("gen-smoke-switch-ladders/12", "58890379d58f7af1");
    ("gen-smoke-switch-ladders/13", "a4622ba523719f75");
    ("gen-smoke-switch-ladders/14", "f6904d3560d1f946");
    ("gen-smoke-switch-ladders/15", "c3e936997a662c0c");
    ("gen-smoke-switch-ladders/16", "eb96e824441eb571");
    ("gen-smoke-switch-ladders/17", "04b830e2ebadae49");
    ("gen-smoke-switch-ladders/18", "111a507d437fbb6b");
    ("gen-smoke-switch-ladders/19", "75a709042097b59c");
    ("gen-depth5-all/1", "e02de9ad5420ac16");
    ("gen-depth5-all/7", "b34766c5d006c491");
  ]

let test_construction_pinned () =
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
    Alcotest.failf "%d of %d printed kernels differ from the golden table:\n%s"
      (List.length bad) (List.length rows) (String.concat "\n" bad);
  Alcotest.(check int) "golden rows" (List.length golden) (List.length rows)

let suites =
  [
    ( "construction-golden",
      [
        Alcotest.test_case "construction output: every subject pinned" `Slow
          test_construction_pinned;
      ] );
  ]
