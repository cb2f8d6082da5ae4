(* Shared helpers for the test suites. *)

open Darm_ir
module Kernel = Darm_kernels.Kernel
module Simulator = Darm_sim.Simulator
module Memory = Darm_sim.Memory
module Metrics = Darm_sim.Metrics
module Pass = Darm_core.Pass

(* a fresh scratch directory; tests clean up what they care about and
   the OS tempdir absorbs the rest *)
let temp_dir () =
  let path = Filename.temp_file "darm_test" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let small_sim_config =
  { Simulator.default_config with max_cycles_per_warp = 50_000_000 }

let run_instance (inst : Kernel.instance) : Metrics.t =
  Simulator.run ~config:small_sim_config inst.Kernel.func
    ~args:inst.Kernel.args ~global:inst.Kernel.global inst.Kernel.launch

(** A memory cell rendered with its constructor: [i<n>], [b0]/[b1],
    [f<bits in hex>], [pg<off>]/[ps<off>] (global/shared pointer) or
    [u] (undef).  Two cells render alike iff they are the same value. *)
let cell_string : Memory.rv -> string = function
  | Memory.Rint n -> Printf.sprintf "i%d" n
  | Memory.Rbool v -> Printf.sprintf "b%d" (Bool.to_int v)
  | Memory.Rfloat x -> Printf.sprintf "f%Lx" (Int64.bits_of_float x)
  | Memory.Rptr (Memory.Sp_global, o) -> Printf.sprintf "pg%d" o
  | Memory.Rptr (Memory.Sp_shared, o) -> Printf.sprintf "ps%d" o
  | Memory.Rundef -> "u"

(** Check [(key, value)] pairs against a recorded golden table with
    [check label golden value]; every pair missing from the table is
    reported at once, rendered by [record] as a row to paste, so a new
    table is recorded in one run. *)
let check_table ~what ~label ~record table got check =
  let missing =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k table with
        | None -> Some (record k v)
        | Some g ->
            check (label k) g v;
            None)
      got
  in
  if missing <> [] then
    Alcotest.failf "%s: no golden rows; record:\n%s" what
      (String.concat "\n" missing)

(* Canonical rendering of every counter a run produces: the aggregate
   [Metrics.t] fields, the per-block cycles, and the per-branch and
   per-site attribution in their deterministic orders.  Two runs agree
   on this string iff every statistic the simulator reports agrees. *)
let canonical_stats (m : Metrics.t) : string =
  let b = Buffer.create 1024 in
  let ints xs = String.concat "," (List.map string_of_int xs) in
  Printf.bprintf b "%s;blocks=%s"
    (ints
       [
         m.cycles; m.instructions; m.alu_issues; m.alu_active_lanes;
         m.mem_global; m.mem_shared; m.mem_flat; m.global_transactions;
         m.global_accesses; m.bank_conflicts; m.l1_hits; m.l1_misses;
         m.mem_stall_cycles; m.bank_conflict_cycles; m.mem_cycles;
         m.divergent_branches; m.lost_lane_cycles; m.reconvergences;
         m.barriers;
       ])
    (ints m.block_cycles);
  List.iter
    (fun (id, (s : Metrics.branch_stat)) ->
      Printf.bprintf b ";br:%s=%s" id
        (ints
           [
             s.br_divergences; s.br_cycles; s.br_lost_lane_cycles;
             s.br_reconvergences;
           ]))
    (Metrics.branch_stats m);
  List.iter
    (fun (id, (s : Metrics.mem_site_stat)) ->
      Printf.bprintf b ";site:%s=%s" id
        (ints
           [
             s.ms_issues; s.ms_accesses; s.ms_transactions; s.ms_l1_hits;
             s.ms_l1_misses; s.ms_bank_conflicts; s.ms_bank_conflict_cycles;
             s.ms_stall_cycles; s.ms_cycles;
           ]))
    (Metrics.site_stats m);
  Buffer.contents b

(* the four machine models, named as the suites and the ledger name
   them *)
let models =
  let hier = Simulator.Hier Simulator.default_hier_params
  and its = Simulator.Its Simulator.default_its_params in
  [
    ("flat_stack", Simulator.Flat, Simulator.Stack);
    ("hier_stack", hier, Simulator.Stack);
    ("flat_its", Simulator.Flat, its);
    ("hier_its", hier, its);
  ]

let stats_digest (m : Metrics.t) : string =
  String.sub (Digest.to_hex (Digest.string (canonical_stats m))) 0 16

let show_mismatch tagline a b =
  match Kernel.first_mismatch a b with
  | None -> ()
  | Some k ->
      Alcotest.failf "%s: first mismatch at %d: %s vs %s" tagline k
        (if k < Array.length a then Kernel.rv_to_string a.(k) else "<none>")
        (if k < Array.length b then Kernel.rv_to_string b.(k) else "<none>")

(** The central correctness oracle: simulate [kernel] untransformed and
    after [transform]; both must match each other and the host
    reference. Returns (baseline metrics, transformed metrics). *)
let check_equivalence ?(transform = fun f -> ignore (Pass.run ~checked:true f))
    (kernel : Kernel.t) ~(block_size : int) ~(n : int) ~(seed : int) :
    Metrics.t * Metrics.t =
  let base = kernel.Kernel.make ~seed ~block_size ~n in
  let melded = kernel.Kernel.make ~seed ~block_size ~n in
  transform melded.Kernel.func;
  Verify.run_exn melded.Kernel.func;
  let m_base = run_instance base in
  let m_meld = run_instance melded in
  let out_base = base.Kernel.read_result () in
  let out_meld = melded.Kernel.read_result () in
  let expected = base.Kernel.reference () in
  show_mismatch
    (Printf.sprintf "%s bs=%d: baseline vs reference" kernel.Kernel.tag
       block_size)
    out_base expected;
  show_mismatch
    (Printf.sprintf "%s bs=%d: transformed vs baseline" kernel.Kernel.tag
       block_size)
    out_meld out_base;
  (m_base, m_meld)

(* A hand-built diamond kernel used by several suites:
   out[i] = in[i] < 0 ? (-in[i]) * 2 : in[i] * 3 *)
let diamond_func () : Ssa.func =
  let module D = Dsl in
  D.build_kernel ~name:"diamond"
    ~params:[ ("inp", Types.Ptr Types.Global); ("out", Types.Ptr Types.Global) ]
    (fun ctx params ->
      let inp, out =
        match params with [ i; o ] -> (i, o) | _ -> assert false
      in
      let tid = D.tid ctx in
      let gid = D.add ctx (D.mul ctx (D.bid ctx) (D.bdim ctx)) tid in
      let v = D.load ctx (D.gep ctx inp gid) in
      let r = D.local ctx ~name:"r" Types.I32 in
      D.if_ ctx
        (D.slt ctx v (D.i32 0))
        (fun () -> D.set ctx r (D.mul ctx (D.sub ctx (D.i32 0) v) (D.i32 2)))
        (fun () -> D.set ctx r (D.mul ctx v (D.i32 3)));
      D.store ctx (D.get ctx r) (D.gep ctx out gid))

(* ------------------------------------------------------------------ *)
(* Seed ranges and transform thunks shared by the fuzz-style suites    *)

module Tf = Darm_transforms
module Gen = Darm_fuzz.Gen
module Oracle = Darm_fuzz.Oracle

(** [seeds lo hi] is the inclusive range [lo..hi]. *)
let seeds lo hi =
  let rec go k acc = if k < lo then acc else go (k - 1) (k :: acc) in
  go hi []

let darm f = ignore (Pass.run ~checked:true f)

let darm_no_unpred f =
  ignore
    (Pass.run
       ~config:{ Pass.default_config with unpredicate = false }
       ~checked:true f)

let fusion f =
  ignore (Pass.run ~config:Pass.branch_fusion_config ~checked:true f)

let tail_merge f =
  ignore (Tf.Tail_merge.run f);
  Verify.run_exn f

let cleanups f =
  ignore (Tf.Simplify_cfg.run f);
  ignore (Tf.Constfold.run f);
  ignore (Tf.Dce.run f);
  Verify.run_exn f

let everything f =
  cleanups f;
  darm f;
  tail_merge f;
  ignore (Tf.Simplify_cfg.if_convert f);
  cleanups f

(** Every generator feature at depth 2, three statements per block,
    128-cell arrays. *)
let gen_small_cfg = { Gen.default_cfg with Gen.max_depth = 2 }

(** Run [transform] as the one oracle stage over the [Gen] kernel of
    every seed, at warp 64: the kernel and its transform must verify,
    the transform must mint no checker error, and both must leave the
    same memory under the stack and the ITS model.  All failures are
    collected before reporting so one bad seed doesn't mask the
    others. *)
let run_gen_seeds ?(cfg = gen_small_cfg) ?(block_size = 64) ~name ~transform
    ~seeds:seed_list () =
  let stage =
    ( name,
      {
        Darm_harness.Experiment.t_name = name;
        t_apply = (fun ?obs:_ ?checked:_ f -> transform f; (0, None));
      } )
  in
  match
    List.concat_map
      (fun seed ->
        Oracle.run_subject ~stages:[ stage ] ~warps:[ 64 ]
          (Oracle.subject_of_seed ~cfg ~block_size ~seed ()))
      seed_list
  with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s: %d failure(s):\n%s" name (List.length fs)
        (String.concat "\n" (List.map Oracle.failure_to_string fs))
