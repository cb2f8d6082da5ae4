(* Textual IR parser: round-trips, error reporting, tolerance. *)

open Darm_ir
module K = Darm_kernels

let check = Alcotest.(check bool)

(* the printer omits every type the rule derives, so the text is
   stable only if each instruction's type reads back as it was *)
let roundtrip_stable (f : Ssa.func) =
  let t1 = Printer.func_to_string f in
  match Parser.parse_func t1 with
  | Error e -> Alcotest.failf "parse error: %s\nsource:\n%s" e t1
  | Ok f2 ->
      Verify.run_exn f2;
      let t2 = Printer.func_to_string f2 in
      Alcotest.(check string) "round-trip is stable" t1 t2;
      let types g =
        Ssa.fold_instrs g (fun acc i -> Types.to_string i.Ssa.ty :: acc) []
      in
      Alcotest.(check (list string)) "instruction types read back" (types f)
        (types f2)

let test_roundtrip_all_kernels () =
  List.iter
    (fun (k : K.Kernel.t) ->
      let block_size = List.hd k.K.Kernel.block_sizes in
      let inst = k.K.Kernel.make ~seed:1 ~block_size ~n:k.K.Kernel.default_n in
      roundtrip_stable inst.K.Kernel.func)
    K.Registry.all

let test_roundtrip_melded_kernels () =
  (* melded IR exercises selects, flat pointers, unpredication blocks *)
  List.iter
    (fun (k : K.Kernel.t) ->
      let block_size = List.hd k.K.Kernel.block_sizes in
      let inst = k.K.Kernel.make ~seed:1 ~block_size ~n:k.K.Kernel.default_n in
      ignore (Darm_core.Pass.run inst.K.Kernel.func);
      roundtrip_stable inst.K.Kernel.func)
    [ K.Sb.sb3_r; K.Bitonic.kernel; K.Patterns.flat_meld ]

let parse_err (src : string) : string =
  match Parser.parse_func src with
  | Ok _ -> Alcotest.failf "expected a parse error for:\n%s" src
  | Error e -> e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_error_unknown_opcode () =
  let e =
    parse_err "kernel @k() {\nentry:\n  %0 = frobnicate 1, 2\n  ret\n}\n"
  in
  check "mentions opcode" true (contains e "frobnicate")

let test_error_use_before_def () =
  let e =
    parse_err "kernel @k() {\nentry:\n  %0 = add %1, 2\n  %1 = add 1, 2\n  ret\n}\n"
  in
  check "reports use before definition" true
    (contains e "before definition")

let test_error_phi_forward_ref_ok () =
  (* forward references ARE legal for phis (loop-carried values) *)
  let src =
    "kernel @k() {\n\
     entry:\n\
    \  br head\n\
     head:\n\
    \  %0 = phi i32 [0, entry], [%1, head]\n\
    \  %1 = add %0, 1\n\
    \  %2 = icmp slt %1, 10\n\
    \  condbr %2, head, done\n\
     done:\n\
    \  ret\n\
     }\n"
  in
  match Parser.parse_func src with
  | Ok f -> Verify.run_exn f
  | Error e -> Alcotest.failf "loop phi should parse: %s" e

let test_error_bad_addrspace () =
  let e = parse_err "kernel @k(%p: ptr(banana)) {\nentry:\n  ret\n}\n" in
  check "reports address space" true (contains e "address space")

let test_error_unclosed_body () =
  let e = parse_err "kernel @k() {\nentry:\n  ret\n" in
  check "reports eof" true (contains e "end of file")

let test_error_bad_literal () =
  let e = parse_err "kernel @k() {\nentry:\n  %0 = add 12x4, 1\n  ret\n}\n" in
  check "reports literal" true (contains e "literal")

(* Inputs that once escaped the parser as an exception instead of an
   [Error]: (what, source, substring of the error). *)
let escape_rows =
  [
    ( "select with one operand",
      "kernel @k() {\nentry:\n  %0 = add 1, 2\n  %1 = select %0\n  ret\n}\n",
      "select takes 3 operands" );
    ( "select with two operands",
      "kernel @k() {\nentry:\n  %0 = icmp slt 1, 2\n  %1 = select %0, 7\n\
      \  ret\n}\n",
      "select takes 3 operands" );
    ( "phi reusing a non-phi's name",
      "kernel @k() {\nentry:\n  %0 = add 1, 2\n  br next\nnext:\n\
      \  %0 = phi i32 [1, entry]\n  ret\n}\n",
      "%0 is defined twice" );
    ( "non-phi rebinding a name",
      "kernel @k() {\nentry:\n  %0 = add 1, 2\n  %0 = add 3, 4\n  ret\n}\n",
      "%0 is defined twice" );
    ( "result named like a parameter",
      "kernel @k(%a: i32) {\nentry:\n  %a = add 1, 2\n  ret\n}\n",
      "%a is defined twice" );
  ]

let test_error_escapes () =
  List.iter
    (fun (what, src, needle) ->
      let e = parse_err src in
      check (Printf.sprintf "%s: %S mentions %S" what e needle) true
        (contains e needle))
    escape_rows

(* a repeated label is an error, not one block appended twice *)
let test_error_label_twice () =
  Alcotest.(check string)
    "typed error" "line 4: label a is defined twice"
    (parse_err "kernel @f() {\na:\n  br a\na:\n  ret\n}\n")

let test_comments_and_whitespace () =
  let src =
    "; a leading comment\n\
     kernel @k(%a: ptr(global)) {   ; trailing comment\n\
     entry:\n\
    \   %0   =   thread.idx\n\n\n\
    \  %1 = gep %a, %0 ; index\n\
    \  store 7, %1\n\
    \  ret\n\
     }\n"
  in
  match Parser.parse_func src with
  | Ok f ->
      Verify.run_exn f;
      check "three instrs + ret" true
        (List.length (Ssa.entry_block f).Ssa.instrs = 4)
  | Error e -> Alcotest.failf "should parse: %s" e

let test_parse_then_simulate () =
  (* a hand-written .cir kernel must behave as written *)
  let src =
    "kernel @double(%a: ptr(global)) {\n\
     entry:\n\
    \  %0 = thread.idx\n\
    \  %1 = gep %a, %0\n\
    \  %2 = load i32, %1\n\
    \  %3 = mul %2, 2\n\
    \  store %3, %1\n\
    \  ret\n\
     }\n"
  in
  match Parser.parse_func src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok f ->
      let module Memory = Darm_sim.Memory in
      let g = Memory.create ~space:Memory.Sp_global 16 in
      let a = Memory.alloc_of_int_array g (Array.init 16 (fun i -> i)) in
      ignore
        (Darm_sim.Simulator.run f ~args:[| a |] ~global:g
           { Darm_sim.Simulator.grid_dim = 1; block_dim = 16 });
      Alcotest.(check (array int))
        "doubled"
        (Array.init 16 (fun i -> 2 * i))
        (Memory.read_int_array g a 16)

let test_undef_literal () =
  let src =
    "kernel @k(%a: ptr(global)) {\n\
     entry:\n\
    \  %0 = thread.idx\n\
    \  %1 = select true, %0, undef:i32\n\
    \  %2 = gep %a, %1\n\
    \  store %1, %2\n\
    \  ret\n\
     }\n"
  in
  match Parser.parse_func src with
  | Ok f -> Verify.run_exn f
  | Error e -> Alcotest.failf "undef should parse: %s" e

let test_module_with_two_kernels () =
  let src = "kernel @a() {\nentry:\n  ret\n}\nkernel @b() {\nentry:\n  ret\n}\n" in
  match Parser.parse_module ~name:"m" src with
  | Ok m -> check "two kernels" true (List.length m.Ssa.funcs = 2)
  | Error e -> Alcotest.failf "module should parse: %s" e

(* text that parses but does not verify: the CLI's parse and compile
   report it as a parse error through [Verify.run], so the verifier
   must name the fault rather than raise *)
let test_parses_but_fails_verify () =
  List.iter
    (fun (src, fault) ->
      match Parser.parse_module ~name:"m" src with
      | Error e -> Alcotest.failf "should parse: %s" e
      | Ok m ->
          let msgs =
            List.concat_map
              (fun f -> List.map (fun e -> e.Verify.msg) (Verify.run f))
              m.Ssa.funcs
          in
          check fault true (List.exists (fun msg -> contains msg fault) msgs))
    [
      ("kernel @f(%a: ptr(global), %b: ptr(global)) {}\n", "has no blocks");
      ( "kernel @f(%a: ptr(global), %b: ptr(global)) {\n\
         entry:\n\
        \  %0 = thread.idx\n\
         }\n",
        "lacks a terminator" );
    ]

let suites =
  [
    ( "parser",
      [
        Alcotest.test_case "roundtrip all kernels" `Quick
          test_roundtrip_all_kernels;
        Alcotest.test_case "roundtrip melded kernels" `Quick
          test_roundtrip_melded_kernels;
        Alcotest.test_case "error: unknown opcode" `Quick
          test_error_unknown_opcode;
        Alcotest.test_case "error: use before def" `Quick
          test_error_use_before_def;
        Alcotest.test_case "loop phi forward ref" `Quick
          test_error_phi_forward_ref_ok;
        Alcotest.test_case "error: bad addrspace" `Quick
          test_error_bad_addrspace;
        Alcotest.test_case "error: unclosed body" `Quick
          test_error_unclosed_body;
        Alcotest.test_case "error: bad literal" `Quick test_error_bad_literal;
        Alcotest.test_case "error: malformed operands and names" `Quick
          test_error_escapes;
        Alcotest.test_case "error: label defined twice" `Quick
          test_error_label_twice;
        Alcotest.test_case "comments and whitespace" `Quick
          test_comments_and_whitespace;
        Alcotest.test_case "parse then simulate" `Quick
          test_parse_then_simulate;
        Alcotest.test_case "undef literal" `Quick test_undef_literal;
        Alcotest.test_case "two-kernel module" `Quick
          test_module_with_two_kernels;
        Alcotest.test_case "parses but fails verification" `Quick
          test_parses_but_fails_verify;
      ] );
  ]
