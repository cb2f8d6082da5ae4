(* Every paper kernel written in Mini-HIP source must behave exactly
   like its builder-constructed twin: we run the compiled source on the
   builder instance's own inputs and require the host-reference
   output — before AND after melding. *)

open Darm_ir
module K = Darm_kernels
module Sim = Darm_sim.Simulator

let n_for tag =
  match tag with "PCM" -> 512 | _ -> 256

let compile_hip (src : string) : Ssa.func =
  match Darm_frontend.Lower.compile ~name:"hip" src with
  | Ok { Ssa.funcs = [ f ]; _ } ->
      Verify.run_exn f;
      f
  | Ok _ -> Alcotest.fail "expected one kernel"
  | Error e -> Alcotest.failf "mini-hip compile error: %s" e

let check_source (tag : string) (src : string) ~(meld : bool) () =
  let kernel =
    match K.Registry.find tag with
    | Some k -> k
    | None -> Alcotest.failf "unknown kernel %s" tag
  in
  let inst = kernel.K.Kernel.make ~seed:5 ~block_size:64 ~n:(n_for tag) in
  let f = compile_hip src in
  if meld then begin
    let stats = Darm_core.Pass.run ~checked:true f in
    ignore stats
  end;
  ignore
    (Sim.run f ~args:inst.K.Kernel.args ~global:inst.K.Kernel.global
       inst.K.Kernel.launch);
  Testlib.show_mismatch
    (Printf.sprintf "%s.hip%s vs host reference" tag
       (if meld then " (melded)" else ""))
    (inst.K.Kernel.read_result ())
    (inst.K.Kernel.reference ())

let suites =
  [
    ( "hip-kernels",
      List.concat_map
        (fun (tag, src) ->
          [
            Alcotest.test_case (tag ^ ".hip baseline") `Quick
              (check_source tag src ~meld:false);
            Alcotest.test_case (tag ^ ".hip melded") `Quick
              (check_source tag src ~meld:true);
          ])
        K.Hip_sources.all );
  ]
