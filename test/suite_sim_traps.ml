(* Simulator traps: programs that must fail, pinned by their exact
   error text under both reconvergence models.

   Undef follows poison semantics: pure ALU results on undef stay
   undef, while dividing by undef, dereferencing an undef pointer and
   branching on an undef condition trap.  Kernel arguments are not
   typed by the verifier, so a wrong-kind argument reaches the lane
   executors and must trap there with the operation's name.  The table
   also pins division by zero, out-of-bounds accesses, the runaway-loop
   guard, a barrier in divergent control flow and a launch whose
   argument array does not match the kernel's parameters; programs that
   must run pin the cells they store, constructor included: poisoned
   results, bools, coerced ints and pointers of both spaces.  A trap
   names its instruction by its place in the function ("<block>#<k>"),
   so the text does not depend on how much IR the process built
   before. *)

module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory
module Parser = Darm_ir.Parser

let its = Sim.Its Sim.default_its_params

let parse text =
  match Parser.parse_func text with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse: %s" e

(* the global array every program gets as [%a]: cells 0..63 hold their
   own index *)
let gptr = Memory.Rptr (Memory.Sp_global, 0)

(* Run [text] as one 64-lane block with [args] and render how it ended:
   the error text, or "ok" and the first four global cells *)
let outcome ~reconvergence ~(args : Memory.rv array) (text : string) : string =
  let f = parse text in
  let global = Memory.create ~space:Memory.Sp_global 64 in
  ignore (Memory.alloc_of_int_array global (Array.init 64 Fun.id));
  let config =
    { Sim.default_config with max_cycles_per_warp = 10_000; reconvergence }
  in
  let launch = { Sim.grid_dim = 1; block_dim = 64 } in
  match Sim.run ~config f ~args ~global launch with
  | _ ->
      let cell off = Testlib.cell_string (Memory.read global off) in
      "ok " ^ String.concat " " (List.init 4 cell)
  | exception Sim.Sim_error e -> "Sim_error: " ^ e
  | exception Memory.Fault e -> "Fault: " ^ e

(* a one-block kernel over [%a] and one extra parameter [%x : ty]; the
   body runs after [%0 = thread.idx] *)
let kernel ?(x = "i32") body =
  Printf.sprintf
    "kernel @t(%%a: ptr(global), %%x: %s) {\n\
     entry:\n  %%0 = thread.idx\n%s\n}\n"
    x body

(* store [%1] to [%a + tid] and return *)
let store_ret = "  %2 = gep %a, %0\n  store %1, %2\n  ret"

(* the usual arguments: the global array and [%x] *)
let args x = [| gptr; x |]

(* (name, arguments, program) *)
let programs : (string * Memory.rv array * string) list =
  [
    ( "sdiv by undef",
      args (Memory.Rint 0),
      kernel ("  %1 = sdiv %0, undef:i32\n" ^ store_ret) );
    ( "srem of undef",
      args (Memory.Rint 0),
      kernel ("  %1 = srem undef:i32, 7\n" ^ store_ret) );
    ( "sdiv by zero",
      args (Memory.Rint 0),
      kernel ("  %1 = sdiv 100, %0\n" ^ store_ret) );
    ( "srem by zero",
      args (Memory.Rint 0),
      kernel ("  %1 = srem 100, %x\n" ^ store_ret) );
    ( "load through undef",
      args (Memory.Rint 0),
      kernel "  %1 = load i32, undef:ptr(global)\n  ret" );
    ( "store through undef",
      args (Memory.Rint 0),
      kernel "  store %0, undef:ptr(global)\n  ret" );
    ( "branch on undef",
      args (Memory.Rint 0),
      kernel "  condbr undef:i1, l, r\nl:\n  ret\nr:\n  ret" );
    ( "load out of bounds",
      args (Memory.Rint 0),
      kernel
        "  %1 = add %0, 1000\n  %2 = gep %a, %1\n  %3 = load i32, %2\n  ret" );
    ( "store out of bounds",
      args (Memory.Rint 0),
      kernel "  %1 = sub %0, 1\n  %2 = gep %a, %1\n  store %0, %2\n  ret" );
    ( "ibin on a float",
      args (Memory.Rfloat 1.5),
      kernel ("  %1 = add %x, %0\n" ^ store_ret) );
    ( "ibin on a pointer",
      args gptr,
      kernel ("  %1 = mul %0, %x\n" ^ store_ret) );
    ( "fbin on a bool",
      args (Memory.Rbool true),
      kernel ~x:"f32"
        "  %1 = fadd %x, 1.0\n  %2 = gep %a, %0\n  store %1, %2\n  ret" );
    ( "fbin on a pointer",
      args gptr,
      kernel ~x:"f32" "  %1 = fmul 2.0, %x\n  ret" );
    ( "icmp on a float",
      args (Memory.Rfloat 0.5),
      kernel "  %1 = icmp slt %x, %0\n  ret" );
    ( "fcmp on a pointer",
      args gptr,
      kernel ~x:"f32" "  %1 = fcmp olt %x, 1.0\n  ret" );
    ( "not of a float",
      args (Memory.Rfloat 0.5),
      kernel ~x:"i1" "  %1 = not %x\n  ret" );
    ( "select on a pointer",
      args gptr,
      kernel ~x:"i1" "  %1 = select %x, %0, 3\n  ret" );
    ( "branch on a float",
      args (Memory.Rfloat 0.5),
      kernel ~x:"i1" "  condbr %x, l, r\nl:\n  ret\nr:\n  ret" );
    ( "sitofp of a pointer",
      args gptr,
      kernel "  %1 = sitofp %x\n  ret" );
    ( "fptosi of a bool",
      args (Memory.Rbool false),
      kernel ~x:"f32" "  %1 = fptosi %x\n  ret" );
    ( "load through an integer",
      args (Memory.Rint 5),
      kernel ~x:"ptr(global)" "  %1 = load i32, %x\n  ret" );
    ( "store through a float",
      args (Memory.Rfloat 5.),
      kernel ~x:"ptr(global)" "  store %0, %x\n  ret" );
    ( "gep on an integer",
      args (Memory.Rint 5),
      kernel ~x:"ptr(global)" "  %1 = gep %x, %0\n  ret" );
    ( "add of undef is undef",
      args (Memory.Rint 0),
      kernel ("  %1 = add %0, undef:i32\n" ^ store_ret) );
    ( "gep by undef is undef",
      args (Memory.Rint 0),
      kernel
        "  %1 = gep %a, undef:i32\n  %2 = gep %a, %0\n  store %1, %2\n  ret" );
    ( "select ignores its untaken undef arm",
      args (Memory.Rbool true),
      kernel ~x:"i1" ("  %1 = select %x, %0, undef:i32\n" ^ store_ret) );
    ( "a bool is an integer",
      args (Memory.Rbool true),
      kernel ("  %1 = add %x, %0\n" ^ store_ret) );
    ( "an integer is a float",
      args (Memory.Rint 3),
      kernel ~x:"f32"
        "  %1 = fadd %x, 0.5\n  %2 = gep %a, %0\n  store %1, %2\n  ret" );
    ( "an integer is a condition",
      args (Memory.Rint 2),
      kernel ~x:"i1" ("  %1 = select %x, %0, 7\n" ^ store_ret) );
    ( "stored bools stay bools",
      args (Memory.Rint 0),
      kernel ("  %1 = icmp slt %0, 2\n" ^ store_ret) );
    ( "stored pointers keep their space",
      args (Memory.Rint 0),
      kernel
        "  %1 = alloc.shared 64\n  %3 = and %0, 1\n  %4 = icmp eq %3, 0\n\
        \  %5 = gep %1, %0\n  %6 = addrspace.cast %5\n  %7 = gep %a, %0\n\
        \  %9 = addrspace.cast %7\n  %8 = select %4, %9, %6\n  store %8, %7\n\
        \  ret" );
    ( "runaway loop",
      args (Memory.Rint 0),
      kernel
        "  %1 = and %0, 1\n  %2 = icmp slt 0, %1\n  condbr %2, spin, exit\n\
         spin:\n  br spin\nexit:\n  ret" );
    ( "barrier in divergent flow",
      args (Memory.Rint 0),
      kernel
        "  %1 = icmp slt %0, 5\n  condbr %1, l, r\nl:\n  syncthreads\n  br r\n\
         r:\n  ret" );
    ( "too few arguments",
      [| gptr |],
      kernel ("  %1 = add %x, %0\n" ^ store_ret) );
    ("no arguments", [||], kernel ("  %1 = add %x, %0\n" ^ store_ret));
    ( "too many arguments",
      [| gptr; Memory.Rint 1; Memory.Rint 2 |],
      kernel ("  %1 = add %x, %0\n" ^ store_ret) );
  ]

(* (name, Stack outcome, Its outcome), recorded before the simulator's
   register file was unboxed; the undef-operand traps' instruction
   names re-recorded when they became local to the function *)
let golden_traps =
  [
    ("sdiv by undef",
     "Sim_error: operand 1 is undef in lane 0 (instr entry#1, op sdiv)",
     "Sim_error: operand 1 is undef in lane 0 (instr entry#1, op sdiv)");
    ("srem of undef",
     "Sim_error: operand 0 is undef in lane 0 (instr entry#1, op srem)",
     "Sim_error: operand 0 is undef in lane 0 (instr entry#1, op srem)");
    ("sdiv by zero",
     "Sim_error: sdiv by zero",
     "Sim_error: sdiv by zero");
    ("srem by zero",
     "Sim_error: srem by zero",
     "Sim_error: srem by zero");
    ("load through undef",
     "Sim_error: operand 0 is undef in lane 0 (instr entry#1, op load)",
     "Sim_error: operand 0 is undef in lane 0 (instr entry#1, op load)");
    ("store through undef",
     "Sim_error: operand 1 is undef in lane 0 (instr entry#1, op store)",
     "Sim_error: operand 1 is undef in lane 0 (instr entry#1, op store)");
    ("branch on undef",
     "Sim_error: condbr: use of undef condition",
     "Sim_error: condbr: use of undef condition");
    ("load out of bounds",
     "Fault: load out of bounds: offset 1000 (size 64)",
     "Fault: load out of bounds: offset 1000 (size 64)");
    ("store out of bounds",
     "Fault: store out of bounds: offset -1 (size 64)",
     "Fault: store out of bounds: offset -1 (size 64)");
    ("ibin on a float",
     "Sim_error: ibin: expected integer",
     "Sim_error: ibin: expected integer");
    ("ibin on a pointer",
     "Sim_error: ibin: expected integer",
     "Sim_error: ibin: expected integer");
    ("fbin on a bool",
     "Sim_error: fbin: expected float",
     "Sim_error: fbin: expected float");
    ("fbin on a pointer",
     "Sim_error: fbin: expected float",
     "Sim_error: fbin: expected float");
    ("icmp on a float",
     "Sim_error: icmp: expected integer",
     "Sim_error: icmp: expected integer");
    ("fcmp on a pointer",
     "Sim_error: fcmp: expected float",
     "Sim_error: fcmp: expected float");
    ("not of a float",
     "Sim_error: not: expected boolean",
     "Sim_error: not: expected boolean");
    ("select on a pointer",
     "Sim_error: select: expected boolean",
     "Sim_error: select: expected boolean");
    ("branch on a float",
     "Sim_error: condbr: expected boolean",
     "Sim_error: condbr: expected boolean");
    ("sitofp of a pointer",
     "Sim_error: sitofp: expected integer",
     "Sim_error: sitofp: expected integer");
    ("fptosi of a bool",
     "Sim_error: fptosi: expected float",
     "Sim_error: fptosi: expected float");
    ("load through an integer",
     "Sim_error: load: expected pointer",
     "Sim_error: load: expected pointer");
    ("store through a float",
     "Sim_error: store: expected pointer",
     "Sim_error: store: expected pointer");
    ("gep on an integer",
     "Sim_error: gep: expected pointer",
     "Sim_error: gep: expected pointer");
    ("add of undef is undef",
     "ok u u u u",
     "ok u u u u");
    ("gep by undef is undef",
     "ok u u u u",
     "ok u u u u");
    ("select ignores its untaken undef arm",
     "ok i0 i1 i2 i3",
     "ok i0 i1 i2 i3");
    ("a bool is an integer",
     "ok i1 i2 i3 i4",
     "ok i1 i2 i3 i4");
    ("an integer is a float",
     "ok f400c000000000000 f400c000000000000 f400c000000000000 f400c000000000000",
     "ok f400c000000000000 f400c000000000000 f400c000000000000 f400c000000000000");
    ("an integer is a condition",
     "ok i0 i1 i2 i3",
     "ok i0 i1 i2 i3");
    ("stored bools stay bools",
     "ok b1 b1 b0 b0",
     "ok b1 b1 b0 b0");
    ("stored pointers keep their space",
     "ok pg0 ps1 pg2 ps3",
     "ok pg0 ps1 pg2 ps3");
    ("runaway loop",
     "Sim_error: cycle budget exhausted (runaway loop?)",
     "Sim_error: cycle budget exhausted in lane 1 (runaway loop?)");
    ("barrier in divergent flow",
     "Sim_error: syncthreads in divergent control flow",
     "ok i0 i1 i2 i3");
    ("too few arguments",
     "Sim_error: kernel @t expects 2 arguments, got 1",
     "Sim_error: kernel @t expects 2 arguments, got 1");
    ("no arguments",
     "Sim_error: kernel @t expects 2 arguments, got 0",
     "Sim_error: kernel @t expects 2 arguments, got 0");
    ("too many arguments",
     "Sim_error: kernel @t expects 2 arguments, got 3",
     "Sim_error: kernel @t expects 2 arguments, got 3");
  ]

let test_traps () =
  let got =
    List.map
      (fun (name, args, text) ->
        let run reconvergence = outcome ~reconvergence ~args text in
        (name, (run Sim.Stack, run its)))
      programs
  in
  Testlib.check_table ~what:"simulator traps"
    (List.map (fun (n, s, i) -> (n, (s, i))) golden_traps)
    got ~label:Fun.id
    ~record:(fun n (s, i) -> Printf.sprintf "(%S,\n %S,\n %S);" n s i)
    (fun name (gs, gi) (s, i) ->
      Alcotest.(check string) (name ^ " under Stack") gs s;
      Alcotest.(check string) (name ^ " under Its") gi i)

let suites =
  [
    ( "sim-traps",
      [
        Alcotest.test_case "every trap's text, under Stack and Its" `Quick
          test_traps;
      ] );
  ]
