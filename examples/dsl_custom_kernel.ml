(* Writing your own kernel against the public API: a histogram-style
   kernel with three-way divergence, round-tripped through the textual
   IR format, then optimized and simulated.

     dune exec examples/dsl_custom_kernel.exe
*)

open Darm_ir
module D = Dsl
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory

(* Classify each element into small/medium/large and update a per-block
   shared counter table; nested divergent branches, all meldable.  The
   else-side of the outer branch recomputes a scaled value exactly like
   the then-side does, so DARM finds profitable alignments. *)
let make () =
  D.build_kernel ~name:"classify"
    ~params:[ ("inp", Types.Ptr Types.Global); ("out", Types.Ptr Types.Global) ]
    (fun ctx params ->
      let inp, out =
        match params with [ a; b ] -> (a, b) | _ -> assert false
      in
      let tid = D.tid ctx in
      let gid = D.add ctx (D.mul ctx (D.bid ctx) (D.bdim ctx)) tid in
      let v = D.load ctx (D.gep ctx inp gid) in
      let r = D.local ctx ~name:"r" Types.I32 in
      D.if_ ctx
        (D.slt ctx v (D.i32 100))
        (fun () ->
          (* small: scale up *)
          let t = D.mul ctx v (D.i32 9) in
          let t = D.add ctx t (D.i32 7) in
          D.set ctx r t)
        (fun () ->
          D.if_ ctx
            (D.slt ctx v (D.i32 1000))
            (fun () ->
              (* medium: same instruction mix as "small" *)
              let t = D.mul ctx v (D.i32 3) in
              let t = D.add ctx t (D.i32 1) in
              D.set ctx r t)
            (fun () ->
              (* large: saturate *)
              D.set ctx r (D.i32 9999)));
      D.store ctx (D.get ctx r) (D.gep ctx out gid))

let host v =
  if v < 100 then (v * 9) + 7 else if v < 1000 then (v * 3) + 1 else 9999

let () =
  let f = make () in

  (* round-trip through the textual format: print, parse, verify *)
  let text = Printer.func_to_string f in
  print_endline "=== kernel (textual IR) ===";
  print_string text;
  let f =
    match Parser.parse_func text with
    | Ok f ->
        Verify.run_exn f;
        print_endline ";; round-trip through the parser: ok";
        f
    | Error e -> failwith ("parse error: " ^ e)
  in

  (* optimize *)
  let stats = Darm_core.Pass.run ~checked:true f in
  Printf.printf "\nDARM applied %d meld(s)\n" stats.Darm_core.Pass.melds_applied;

  (* simulate and check against the host mirror *)
  let n = 512 in
  let g = Memory.create ~space:Memory.Sp_global (2 * n) in
  let input = Array.init n (fun i -> (i * i * 13) mod 2000) in
  let inp = Memory.alloc_of_int_array g input in
  let out = Memory.alloc g n in
  let metrics =
    Sim.run f ~args:[| inp; out |] ~global:g
      { Sim.grid_dim = n / 128; block_dim = 128 }
  in
  let got = Memory.read_int_array g out n in
  let expected = Array.map host input in
  assert (got = expected);
  Printf.printf "simulated %d threads, output matches the host mirror\n" n;
  Printf.printf "%s\n" (Darm_sim.Metrics.to_string metrics ~warp_size:64)
