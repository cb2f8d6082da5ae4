(* The delta-debugging shrinker (lib/fuzz/shrink.ml), exercised on an
   XRACE-injected smoke kernel with a checker-only predicate — cheap
   (no transformed runs) yet a real end-to-end minimization. *)

module G = Darm_fuzz.Gen
module M = Darm_fuzz.Mutate
module O = Darm_fuzz.Oracle
module S = Darm_fuzz.Shrink

let cfg = G.smoke_cfg
let seed = 3
let key = "base/checker:shared-race-ww"

(* the injected kernel, printed *)
let text0 =
  lazy
    (Darm_ir.Printer.func_to_string
       ((O.subject_of_seed ~cfg ~inject:M.Xrace ~block_size:64 ~seed ())
          .O.sb_fresh ()))

(* base-only oracle (verifier + checkers + single-warp run) keyed on
   the injected race diagnostic *)
let still_failing text =
  let subj =
    O.subject_of_text ~name:"shrink-test" ~block_size:64
      ~n:cfg.G.array_size ~input_seed:seed text
  in
  List.exists
    (fun fl -> O.failure_key fl = key)
    (O.run_subject ~stages:[] ~warps:[ 64 ] subj)

let minimize ?max_steps () =
  S.minimize ?max_steps ~still_failing (Lazy.force text0)

(* one full minimization shared by the fixpoint/predicate/verify cases;
   the determinism case pays for its own second, independent run *)
let full = lazy (minimize ())

let suites =
  [
    ( "shrink",
      [
        Alcotest.test_case "terminates at a small fixpoint" `Quick
          (fun () ->
            let r = Lazy.force full in
            if r.S.sh_steps <= 0 then
              Alcotest.fail "shrinker accepted no reductions";
            if r.S.sh_blocks > 8 then
              Alcotest.failf "repro still has %d blocks (> 8)" r.S.sh_blocks);
        Alcotest.test_case "result still fails the predicate" `Quick
          (fun () ->
            let r = Lazy.force full in
            if not (still_failing r.S.sh_text) then
              Alcotest.fail "minimized kernel no longer fails");
        Alcotest.test_case "result parses and verifies" `Quick
          (fun () ->
            let r = Lazy.force full in
            match Darm_ir.Parser.parse_func r.S.sh_text with
            | Ok f -> Darm_ir.Verify.run_exn f
            | Error e -> Alcotest.failf "parse: %s" e);
        Alcotest.test_case "deterministic: two runs are byte-identical"
          `Quick
          (fun () ->
            let r1 = Lazy.force full and r2 = minimize () in
            Alcotest.(check string) "text" r1.S.sh_text r2.S.sh_text;
            Alcotest.(check int) "steps" r1.S.sh_steps r2.S.sh_steps);
        Alcotest.test_case "max_steps caps accepted reductions" `Quick
          (fun () ->
            let r = minimize ~max_steps:1 () in
            if r.S.sh_steps > 1 then
              Alcotest.failf "accepted %d reductions under max_steps:1"
                r.S.sh_steps;
            if not (still_failing r.S.sh_text) then
              Alcotest.fail "capped result no longer fails");
        Alcotest.test_case "rejects an input that does not fail" `Quick
          (fun () ->
            match
              S.minimize ~still_failing:(fun _ -> false) (Lazy.force text0)
            with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "minimize accepted a passing input");
      ] );
  ]
