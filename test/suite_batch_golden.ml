(* What Batch computes for a fuzz spec, pinned byte for byte: the MD5 of
   every darm-batchres-v1 line of a cold run with no cache, with the
   one wall-clock field (pass_ms) masked.  The line holds the status,
   the checker ids, the meld count, base and melded cycles and
   divergent branches, and whether the melded output matched the
   baseline, so a change to the generator, the inputs, the launch, the
   pass or the simulator on the fuzz path that moves any of them moves
   a digest here.  The
   spec set covers both profiles, a feature-free kernel at a block
   smaller than the warp, and every injected bug (checker-rejected,
   never simulated). *)

module B = Darm_fuzz.Batch
module Mutate = Darm_fuzz.Mutate
module Fsio = Darm_obs.Fsio

let fuzz ?inject ?(block_size = 64) ?(smoke = true) ?(features = "all") seed
    =
  B.Fuzz
    { fz_seed = seed; fz_block_size = block_size; fz_smoke = smoke;
      fz_features = features; fz_inject = inject }

(* (row name, spec) in manifest order *)
let subjects : (string * B.spec) list =
  List.map (fun s -> (Printf.sprintf "smoke/%d" s, fuzz s)) (Testlib.seeds 0 63)
  @ List.map
      (fun s -> (Printf.sprintf "default/%d" s, fuzz ~smoke:false s))
      (Testlib.seeds 0 15)
  @ List.map
      (fun s ->
        (Printf.sprintf "none-bs32/%d" s, fuzz ~block_size:32 ~features:"none" s))
      (Testlib.seeds 0 15)
  @ List.concat_map
      (fun bug ->
        let tag = Mutate.tag bug in
        List.map
          (fun s -> (Printf.sprintf "%s/%d" tag s, fuzz ~inject:tag s))
          (Testlib.seeds 0 3))
      Mutate.all

(* the line with the value of "pass_ms" replaced by 0 *)
let mask_pass_ms (line : string) : string =
  let key = "\"pass_ms\":" in
  let kl = String.length key and n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some v ->
      let rec stop j =
        if j >= n || line.[j] = ',' || line.[j] = '}' then j else stop (j + 1)
      in
      let e = stop v in
      String.sub line 0 v ^ "0" ^ String.sub line e (n - e)

let digest (line : string) : string =
  String.sub (Digest.to_hex (Digest.string (mask_pass_ms line))) 0 16

(* Recorded before Batch ran the fuzz workload through Oracle.exec and
   melded the kernel it had already generated. *)
let golden : (string * string) list =
  [
    ("smoke/0", "10f54de2e19e933d");
    ("smoke/1", "9c0f34779d43ae66");
    ("smoke/2", "236672b12efe77ea");
    ("smoke/3", "66be57b68c2f6bea");
    ("smoke/4", "65463231417d22ff");
    ("smoke/5", "e1e7a7564cc7f765");
    ("smoke/6", "5fe113db5fd5f2f4");
    ("smoke/7", "419121abca8738d0");
    ("smoke/8", "de81fe97cc0fb12f");
    ("smoke/9", "5ca7d6b15cc1fc1f");
    ("smoke/10", "2a90eee729879a58");
    ("smoke/11", "34a41a35b3d7e6fd");
    ("smoke/12", "8deb0a6726e88bca");
    ("smoke/13", "b07550176884fd81");
    ("smoke/14", "314b0bc2fe092004");
    ("smoke/15", "88441647d4717992");
    ("smoke/16", "50b5cacdd597b97c");
    ("smoke/17", "e1deeecd12eb1e62");
    ("smoke/18", "f616d503793e0ae8");
    ("smoke/19", "3f18865982b756d2");
    ("smoke/20", "4d919cd001811ed1");
    ("smoke/21", "6b401530d0b47590");
    ("smoke/22", "ac616b5f76706d8a");
    ("smoke/23", "504a16f6a8cdb1eb");
    ("smoke/24", "2278a9f7528ee209");
    ("smoke/25", "500ebeecb4aec25b");
    ("smoke/26", "911d812dc6618a09");
    ("smoke/27", "6527dd3b975cab01");
    ("smoke/28", "8e888bdfe0774168");
    ("smoke/29", "2b4492bcc54e52a7");
    ("smoke/30", "ba5c5e0aea8bba59");
    ("smoke/31", "3d3de999a71f1dce");
    ("smoke/32", "9030edeeeae14192");
    ("smoke/33", "64ef119aafa54f94");
    ("smoke/34", "2e6faa6f636734a1");
    ("smoke/35", "11846990d485a45b");
    ("smoke/36", "194d8734f9a36610");
    ("smoke/37", "22f7fbb3db1cc444");
    ("smoke/38", "ef2378b98a3df667");
    ("smoke/39", "793a55f401b72e36");
    ("smoke/40", "b6ee06c0c881b18c");
    ("smoke/41", "5f4a32cc0bf9e568");
    ("smoke/42", "05808288ad8e7e9b");
    ("smoke/43", "da65da46dd29ed0a");
    ("smoke/44", "07df852b1e2e2595");
    ("smoke/45", "e2346dc4f27f9cab");
    ("smoke/46", "ed6997f06efa9a29");
    ("smoke/47", "f2db962575fd42a4");
    ("smoke/48", "458779795f46e85d");
    ("smoke/49", "6ec92ac6ba546f6b");
    ("smoke/50", "ed8d50d59712ccad");
    ("smoke/51", "059a41c9a4bd2b8f");
    ("smoke/52", "ecea9abed132cef3");
    ("smoke/53", "144b4865cd51a5fe");
    ("smoke/54", "9a30b834dbc239a9");
    ("smoke/55", "d4ba2f13694d3568");
    ("smoke/56", "676abc0ff4f19f09");
    ("smoke/57", "62b5140ad3e9d774");
    ("smoke/58", "c6f06bf9b59f2797");
    ("smoke/59", "37894fa1f5a967a2");
    ("smoke/60", "c77c33724adcd43e");
    ("smoke/61", "95ad8b3ad6b24135");
    ("smoke/62", "7589d958c08d5747");
    ("smoke/63", "e1b44e6814c99688");
    ("default/0", "276c1ac67b016d62");
    ("default/1", "f36f1e5631ef931d");
    ("default/2", "95fc982cf2e5f018");
    ("default/3", "f6cde8b99ef35d48");
    ("default/4", "e60aba85c40024bb");
    ("default/5", "ac1818dda4c99e3e");
    ("default/6", "6fa265fe55296ca4");
    ("default/7", "31ee919bf3e53bcb");
    ("default/8", "9c01632fd27277f7");
    ("default/9", "2fc471b3fc4423fd");
    ("default/10", "8a651e76e441f306");
    ("default/11", "12afca7c5c1001f4");
    ("default/12", "c589d8aa670148a7");
    ("default/13", "342d748c5c07df6f");
    ("default/14", "beec23760b39215f");
    ("default/15", "62752772797f8fa5");
    ("none-bs32/0", "ab00d31b1f2c2506");
    ("none-bs32/1", "1b0fe6420d36ee77");
    ("none-bs32/2", "b7f015f9f6c62fee");
    ("none-bs32/3", "72ca54937b543b62");
    ("none-bs32/4", "4fd9be2f0997bb62");
    ("none-bs32/5", "eee965845a3b7199");
    ("none-bs32/6", "ceb5fce392e08529");
    ("none-bs32/7", "2b0f7db27070312e");
    ("none-bs32/8", "825aa668f86a1464");
    ("none-bs32/9", "bab0c7e30256ce28");
    ("none-bs32/10", "ddb6c96598751197");
    ("none-bs32/11", "05fb7314f8497382");
    ("none-bs32/12", "44a015b90ab962b5");
    ("none-bs32/13", "853560f9399cab47");
    ("none-bs32/14", "6879e70314c9daa1");
    ("none-bs32/15", "39f296d5b13ce72f");
    ("XBAR/0", "944b65065445e3ab");
    ("XBAR/1", "6f12d1577b105c19");
    ("XBAR/2", "604203f0f429f479");
    ("XBAR/3", "e088f91419f28fa6");
    ("XRACE/0", "cabb40503edc49ba");
    ("XRACE/1", "3eb5c9067b052900");
    ("XRACE/2", "a886596477722dcf");
    ("XRACE/3", "0d3f8f4dbd1678dc");
    ("XRW/0", "1db515a8d3a46c0d");
    ("XRW/1", "5e4ce48d79d05483");
    ("XRW/2", "1f7d21d0f3590aa1");
    ("XRW/3", "5bf73effa29638c2");
  ]

let test_cold_payloads_pinned () =
  let out = Filename.temp_file "darm_batch_golden" ".jsonl" in
  let s = B.run ~jobs:1 ~out (List.map snd subjects) in
  let lines =
    String.split_on_char '\n' (String.trim (Fsio.read_file out))
  in
  Sys.remove out;
  Alcotest.(check int) "every spec run" (List.length subjects) s.B.bt_run;
  Alcotest.(check int) "one line per spec" (List.length subjects)
    (List.length lines);
  let rows = List.map2 (fun (name, _) l -> (name, digest l)) subjects lines in
  let bad =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name golden with
        | Some g when String.equal g d -> None
        | _ -> Some (Printf.sprintf "    (%S, %S);" name d))
      rows
  in
  if bad <> [] then
    Alcotest.failf "%d of %d payload lines differ from the golden table:\n%s"
      (List.length bad) (List.length rows) (String.concat "\n" bad);
  Alcotest.(check int) "golden rows" (List.length golden) (List.length rows)

let suites =
  [
    ( "batch-golden",
      [
        Alcotest.test_case "cold fuzz payloads: every spec pinned" `Slow
          test_cold_payloads_pinned;
      ] );
  ]
