(* Compiling kernels from Mini-HIP source (the C-like frontend): parse,
   lower to SSA, meld, and simulate — no OCaml kernel-building required.

     dune exec examples/minihip_frontend.exe
*)

open Darm_ir
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory

(* The paper's motivating pattern, §III, straight from C-like source:
   both sides of the thread-dependent branch do a compare-and-swap over
   shared memory with opposite directions. *)
let source =
  {|
// one sorting step per thread pair, direction by thread parity
__global__ void oddeven_step(int* values) {
  __shared__ int s[128];
  int t = threadIdx();
  s[t] = values[t];
  __syncthreads();
  int partner = t ^ 1;
  if ((t & 1) == 0) {
    if (s[partner] < s[t]) {
      int tmp = s[t]; s[t] = s[partner]; s[partner] = tmp;
    }
  } else {
    /* odd threads only re-read; their even partner did the swap */
    s[t] = s[t];
  }
  __syncthreads();
  values[t] = s[t];
}
|}

let () =
  print_endline "=== Mini-HIP source ===";
  print_string source;
  let m =
    match Darm_frontend.Lower.compile ~name:"example" source with
    | Ok m -> m
    | Error e -> failwith ("compile error: " ^ e)
  in
  let f = List.hd m.Ssa.funcs in
  Verify.run_exn f;
  print_endline "\n=== lowered SSA ===";
  print_string (Printer.func_to_string f);

  let stats = Darm_core.Pass.run ~checked:true f in
  Printf.printf "\n=== after DARM (%d meld(s)) ===\n"
    stats.Darm_core.Pass.melds_applied;
  print_string (Printer.func_to_string f);

  (* run it *)
  let n = 128 in
  let input = Array.init n (fun i -> (i * 37) mod 101) in
  let g = Memory.create ~space:Memory.Sp_global n in
  let pv = Memory.alloc_of_int_array g input in
  let metrics =
    Sim.run f ~args:[| pv |] ~global:g { Sim.grid_dim = 1; block_dim = n }
  in
  let out = Memory.read_int_array g pv n in
  (* each even/odd pair must be ordered *)
  let ok = ref true in
  for p = 0 to (n / 2) - 1 do
    if out.(2 * p) > out.((2 * p) + 1) then ok := false
  done;
  Printf.printf "\npairs ordered: %b\n%s\n" !ok
    (Darm_sim.Metrics.to_string metrics ~warp_size:64)
