(* The Mini-HIP frontend: parsing, type checking, lowering, and
   source-level equivalence with the builder-constructed kernels. *)

open Darm_ir
module F = Darm_frontend
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory

let check = Alcotest.(check bool)

let compile_one (src : string) : Ssa.func =
  match F.Lower.compile ~name:"test" src with
  | Ok { Ssa.funcs = [ f ]; _ } ->
      Verify.run_exn f;
      f
  | Ok _ -> Alcotest.fail "expected exactly one kernel"
  | Error e -> Alcotest.failf "compile error: %s" e

let expect_error (src : string) : string =
  match F.Lower.compile ~name:"test" src with
  | Ok _ -> Alcotest.failf "expected a compile error for:\n%s" src
  | Error e -> e

let run_ints f ~block ~args_global =
  let g = Memory.create ~space:Memory.Sp_global 4096 in
  let ptrs = List.map (fun a -> Memory.alloc_of_int_array g a) args_global in
  ignore
    (Sim.run f ~args:(Array.of_list ptrs) ~global:g
       { Sim.grid_dim = 1; block_dim = block });
  (g, ptrs)

let test_saxpy_style () =
  let f =
    compile_one
      {|
kernel scale(int* a, int* b) {
  int i = threadIdx();
  b[i] = a[i] * 3 + 1;
}
|}
  in
  let input = Array.init 32 (fun i -> i) in
  let g, ptrs = run_ints f ~block:32 ~args_global:[ input; Array.make 32 0 ] in
  let out = Memory.read_int_array g (List.nth ptrs 1) 32 in
  Alcotest.(check (array int)) "scaled" (Array.map (fun v -> (v * 3) + 1) input) out

let test_control_flow_and_shared () =
  let f =
    compile_one
      {|
kernel oddeven(int* a) {
  __shared__ int s[64];
  int t = threadIdx();
  s[t] = a[t];
  __syncthreads();
  if ((t & 1) == 0) {
    s[t] = s[t] * 2;
  } else {
    s[t] = s[t] + 100;
  }
  __syncthreads();
  a[t] = s[t];
}
|}
  in
  let input = Array.init 64 (fun i -> i) in
  let g, ptrs = run_ints f ~block:64 ~args_global:[ input ] in
  let out = Memory.read_int_array g (List.hd ptrs) 64 in
  let expected =
    Array.map (fun v -> if v land 1 = 0 then v * 2 else v + 100) input
  in
  Alcotest.(check (array int)) "odd/even" expected out;
  (* and DARM melds the region *)
  let stats = Darm_core.Pass.run ~checked:true f in
  check "melds" true (stats.Darm_core.Pass.melds_applied >= 1)

let test_for_loop_and_opassign () =
  let f =
    compile_one
      {|
kernel sums(int* a) {
  int t = threadIdx();
  int acc = 0;
  for (int i = 0; i < t; i++) {
    acc += i;
  }
  a[t] = acc;
}
|}
  in
  let g, ptrs = run_ints f ~block:16 ~args_global:[ Array.make 16 0 ] in
  let out = Memory.read_int_array g (List.hd ptrs) 16 in
  Alcotest.(check (array int)) "triangular"
    (Array.init 16 (fun t -> t * (t - 1) / 2))
    out

let test_short_circuit_guards_division () =
  (* C semantics: the right operand of && must not evaluate when the
     left is false — here that would divide by zero *)
  let f =
    compile_one
      {|
kernel guard(int* a) {
  int t = threadIdx();
  int d = t % 4;
  if (d != 0 && 100 / d > 30) {
    a[t] = 1;
  } else {
    a[t] = 0;
  }
}
|}
  in
  let g, ptrs = run_ints f ~block:16 ~args_global:[ Array.make 16 9 ] in
  let out = Memory.read_int_array g (List.hd ptrs) 16 in
  let expected =
    Array.init 16 (fun t ->
        let d = t mod 4 in
        if d <> 0 && 100 / d > 30 then 1 else 0)
  in
  Alcotest.(check (array int)) "no div-by-zero trap" expected out

let test_ternary_evaluates_one_arm () =
  (* the not-taken arm indexes out of bounds; C evaluates only one *)
  let f =
    compile_one
      {|
kernel tern(int* a) {
  int t = threadIdx();
  int v = t < 8 ? a[t] : a[t + 100000];
  a[t] = t < 8 ? v + 1 : 0;
}
|}
  in
  let input = Array.init 8 (fun i -> i * 5) in
  let g, ptrs = run_ints f ~block:8 ~args_global:[ input ] in
  let out = Memory.read_int_array g (List.hd ptrs) 8 in
  Alcotest.(check (array int)) "lazy ternary"
    (Array.map (fun v -> v + 1) input)
    out

let test_float_kernel () =
  let f =
    compile_one
      {|
kernel halve(float* x, int* out) {
  int t = threadIdx();
  float v = x[t] * 0.5f;
  float c = v > 10.0 ? 10.0 : v;
  out[t] = int(max(c, 0.0));
}
|}
  in
  ignore f (* verified in compile_one; float path exercised *)

let test_bitonic_hip_matches_builder () =
  (* the paper's Fig. 1 kernel written in Mini-HIP must sort exactly like
     the builder-constructed version *)
  let src =
    {|
__global__ void bitonic(int* values) {
  __shared__ int shared[64];
  int tid = threadIdx();
  int gid = blockIdx() * blockDim() + tid;
  shared[tid] = values[gid];
  __syncthreads();
  for (int k = 2; k <= 64; k *= 2) {
    for (int j = k / 2; j > 0; j /= 2) {
      int ixj = tid ^ j;
      if (ixj > tid) {
        if ((tid & k) == 0) {
          if (shared[ixj] < shared[tid]) {
            int tmp = shared[tid];
            shared[tid] = shared[ixj];
            shared[ixj] = tmp;
          }
        } else {
          if (shared[ixj] > shared[tid]) {
            int tmp = shared[tid];
            shared[tid] = shared[ixj];
            shared[ixj] = tmp;
          }
        }
      }
      __syncthreads();
    }
  }
  values[gid] = shared[tid];
}
|}
  in
  let f = compile_one src in
  let stats = Darm_core.Pass.run ~checked:true f in
  check "hip bitonic melds" true (stats.Darm_core.Pass.melds_applied >= 1);
  let input = Darm_kernels.Kernel.random_int_array ~seed:7 ~n:128 ~bound:1000 in
  let g = Memory.create ~space:Memory.Sp_global 128 in
  let pv = Memory.alloc_of_int_array g input in
  ignore
    (Sim.run f ~args:[| pv |] ~global:g { Sim.grid_dim = 2; block_dim = 64 });
  let out = Memory.read_int_array g pv 128 in
  let expected =
    let a = Array.copy input in
    let b0 = Array.sub a 0 64 and b1 = Array.sub a 64 64 in
    Array.sort compare b0;
    Array.sort compare b1;
    Array.append b0 b1
  in
  Alcotest.(check (array int)) "per-block sorted" expected out

let test_type_errors () =
  let e1 =
    expect_error "kernel k(int* a) { a[0] = 1.5; }"
  in
  check "int/float store" true (String.length e1 > 0);
  let e2 = expect_error "kernel k(int* a) { if (a[0]) { a[0] = 1; } }" in
  check "int condition" true (String.length e2 > 0);
  let e3 = expect_error "kernel k(int n) { n = 3; }" in
  check "assign to parameter" true (String.length e3 > 0);
  let e4 = expect_error "kernel k(int* a) { b[0] = 1; }" in
  check "unknown identifier" true (String.length e4 > 0)

let test_parse_errors () =
  let e1 = expect_error "kernel k(int* a) { if (1 < ) {} }" in
  check "expression error" true (String.length e1 > 0);
  let e2 = expect_error "kernel k(int* a) { a[0] = 1 " in
  check "unterminated" true (String.length e2 > 0);
  let e3 = expect_error "kernel k(wat x) {}" in
  check "bad type" true (String.length e3 > 0)

let test_comments_and_suffixes () =
  let f =
    compile_one
      {|
// line comment
kernel k(float* x) {
  /* block
     comment */
  int t = threadIdx();
  x[t] = 2.5f; // trailing
}
|}
  in
  ignore f

let suites =
  [
    ( "frontend",
      [
        Alcotest.test_case "saxpy style" `Quick test_saxpy_style;
        Alcotest.test_case "control flow + shared" `Quick
          test_control_flow_and_shared;
        Alcotest.test_case "for loop and +=" `Quick
          test_for_loop_and_opassign;
        Alcotest.test_case "short-circuit &&" `Quick
          test_short_circuit_guards_division;
        Alcotest.test_case "lazy ternary" `Quick
          test_ternary_evaluates_one_arm;
        Alcotest.test_case "float kernel" `Quick test_float_kernel;
        Alcotest.test_case "bitonic.hip sorts and melds" `Quick
          test_bitonic_hip_matches_builder;
        Alcotest.test_case "type errors" `Quick test_type_errors;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "comments and suffixes" `Quick
          test_comments_and_suffixes;
      ] );
  ]
