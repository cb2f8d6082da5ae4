(* Regression-corpus replay: every shrunk repro in test/corpus/ is
   parsed and run through the oracle matrix, and its verdict must match
   the expect= header — a fixed bug or a changed failure mode flips the
   replay red.  Plus header codec round-trips. *)

module C = Darm_fuzz.Corpus
module O = Darm_fuzz.Oracle

(* cwd is _build/default/test under [dune runtest] (the glob_files dep
   copies the corpus next to the binary) but the project root under
   [dune exec test/test_compiler.exe] *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let entries =
  lazy (if Sys.file_exists corpus_dir then C.load_dir corpus_dir else [])

let replay_case (path, parsed) =
  Alcotest.test_case (Filename.basename path) `Quick (fun () ->
      match parsed with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok entry -> (
          match C.replay entry with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" path e))

let codec_cases =
  [
    Alcotest.test_case "header round-trips through to_string/of_string"
      `Quick
      (fun () ->
        let entry =
          {
            C.en_name = "roundtrip"; en_seed = 7; en_block_size = 32;
            en_n = 64; en_input_seed = 9;
            en_expect = C.Fail { stage = "darm"; kind = "checker:shared-race-ww" };
            en_note = Some "codec test";
            en_text = "kernel @k(%a: ptr(global), %b: ptr(global)) {\n}";
          }
        in
        match C.of_string (C.to_string entry) with
        | Error e -> Alcotest.failf "reparse: %s" e
        | Ok e2 ->
            Alcotest.(check string) "name" entry.C.en_name e2.C.en_name;
            Alcotest.(check int) "seed" entry.C.en_seed e2.C.en_seed;
            Alcotest.(check int) "block" entry.C.en_block_size e2.C.en_block_size;
            Alcotest.(check int) "n" entry.C.en_n e2.C.en_n;
            Alcotest.(check int) "input" entry.C.en_input_seed e2.C.en_input_seed;
            Alcotest.(check string) "expect"
              (C.expectation_to_string entry.C.en_expect)
              (C.expectation_to_string e2.C.en_expect);
            Alcotest.(check (option string)) "note" entry.C.en_note e2.C.en_note);
    Alcotest.test_case "save creates missing parent directories" `Quick
      (fun () ->
        let entry =
          {
            C.en_name = "nested"; en_seed = 1; en_block_size = 64; en_n = 128;
            en_input_seed = 1; en_expect = C.Pass; en_note = None;
            en_text = "kernel @k(%a: ptr(global), %b: ptr(global)) {\n}";
          }
        in
        let dir = Filename.concat (Testlib.temp_dir ()) "missing/nested" in
        let path = C.save ~dir entry in
        match C.load_file path with
        | Error e -> Alcotest.fail e
        | Ok e2 ->
            Alcotest.(check string) "bytes" (C.to_string entry)
              (C.to_string e2));
    Alcotest.test_case "expectation_of_string" `Quick (fun () ->
        (match C.expectation_of_string "pass" with
        | Ok C.Pass -> ()
        | _ -> Alcotest.fail "pass not parsed");
        (match C.expectation_of_string "fail/base/checker:barrier-divergence" with
        | Ok (C.Fail { stage = "base"; kind = "checker:barrier-divergence" }) ->
            ()
        | _ -> Alcotest.fail "fail spec not parsed");
        (match C.expectation_of_string "fail/onlystage" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "fail spec without kind accepted");
        match C.expectation_of_string "maybe" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "junk expectation accepted");
    Alcotest.test_case "corpus is non-empty and well-formed" `Quick
      (fun () ->
        let es = Lazy.force entries in
        if List.length es < 4 then
          Alcotest.failf "only %d corpus entries found in %s/"
            (List.length es) corpus_dir;
        List.iter
          (fun (path, parsed) ->
            match parsed with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: %s" path e)
          es);
    Alcotest.test_case "flipping a fail entry's expectation turns replay red"
      `Quick
      (fun () ->
        let fail_entry =
          List.find_map
            (fun (_, parsed) ->
              match parsed with
              | Ok ({ C.en_expect = C.Fail _; _ } as e) -> Some e
              | _ -> None)
            (Lazy.force entries)
        in
        match fail_entry with
        | None -> Alcotest.fail "no expect=fail entry in the corpus"
        | Some entry -> (
            match C.replay { entry with C.en_expect = C.Pass } with
            | Error _ -> ()
            | Ok () ->
                Alcotest.failf "%s replayed Ok with expect flipped to pass"
                  entry.C.en_name));
  ]

let suites =
  [ ("corpus", List.map replay_case (Lazy.force entries) @ codec_cases) ]
