(* Quickstart: build a small divergent GPU kernel with the DSL, run the
   DARM melding pass, and measure the effect on the SIMT simulator.

     dune exec examples/quickstart.exe
*)

open Darm_ir
module D = Dsl
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory
module Metrics = Darm_sim.Metrics

(* A kernel with classic odd/even thread divergence: even threads
   smooth their element with the right neighbour, odd threads with the
   left one.  Both paths are the same shape, so DARM can meld them. *)
let make_kernel () =
  D.build_kernel ~name:"smooth"
    ~params:[ ("inp", Types.Ptr Types.Global); ("out", Types.Ptr Types.Global);
              ("n", Types.I32) ]
    (fun ctx params ->
      let inp, out, n =
        match params with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let tid = D.tid ctx in
      let gid = D.add ctx (D.mul ctx (D.bid ctx) (D.bdim ctx)) tid in
      let clamp v = D.smax ctx (D.i32 0) (D.smin ctx v (D.sub ctx n (D.i32 1))) in
      let result = D.local ctx ~name:"result" Types.I32 in
      D.if_ ctx
        (D.eq ctx (D.and_ ctx gid (D.i32 1)) (D.i32 0))
        (fun () ->
          let here = D.load ctx (D.gep ctx inp gid) in
          let right = D.load ctx (D.gep ctx inp (clamp (D.add ctx gid (D.i32 1)))) in
          D.set ctx result (D.sdiv ctx (D.add ctx here right) (D.i32 2)))
        (fun () ->
          let here = D.load ctx (D.gep ctx inp gid) in
          let left = D.load ctx (D.gep ctx inp (clamp (D.sub ctx gid (D.i32 1)))) in
          D.set ctx result (D.sdiv ctx (D.add ctx here left) (D.i32 2)));
      D.store ctx (D.get ctx result) (D.gep ctx out gid))

let simulate f =
  let n = 256 in
  let g = Memory.create ~space:Memory.Sp_global (2 * n) in
  let input = Array.init n (fun i -> (i * 37) mod 101) in
  let inp = Memory.alloc_of_int_array g input in
  let out = Memory.alloc g n in
  let metrics =
    Sim.run f ~args:[| inp; out; Memory.Rint n |] ~global:g
      { Sim.grid_dim = n / 64; block_dim = 64 }
  in
  (metrics, Memory.read_int_array g out n)

let () =
  print_endline "=== 1. the kernel, as built by the DSL ===";
  let f = make_kernel () in
  print_string (Printer.func_to_string f);

  print_endline "\n=== 2. divergence analysis ===";
  let dvg = Darm_analysis.Manager.divergence f in
  List.iter
    (fun b -> Printf.printf "divergent branch at block %s\n" b.Ssa.bname)
    (Darm_analysis.Divergence.divergent_branches dvg f);

  print_endline "\n=== 3. baseline simulation ===";
  let base_metrics, base_out = simulate f in
  Printf.printf "%s\n" (Metrics.to_string base_metrics ~warp_size:64);

  print_endline "\n=== 4. DARM melding ===";
  let stats = Darm_core.Pass.run ~checked:true f in
  Printf.printf "melds applied: %d (aligned instruction pairs: %d, selects: %d)\n"
    stats.Darm_core.Pass.melds_applied
    stats.Darm_core.Pass.meld_stats.Darm_core.Meld.melded_pairs
    stats.Darm_core.Pass.meld_stats.Darm_core.Meld.selects_inserted;
  print_string (Printer.func_to_string f);

  print_endline "\n=== 5. melded simulation ===";
  let meld_metrics, meld_out = simulate f in
  Printf.printf "%s\n" (Metrics.to_string meld_metrics ~warp_size:64);
  assert (base_out = meld_out);
  Printf.printf "\noutputs identical; speedup %.2fx\n"
    (float_of_int base_metrics.Metrics.cycles
    /. float_of_int meld_metrics.Metrics.cycles)
