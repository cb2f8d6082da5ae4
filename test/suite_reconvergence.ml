(* Reconvergence-model invariants.

   Stack is the contract: making reconvergence pluggable must not move
   a single stack-model cycle, so the registry kernels are pinned
   against golden cycle counts recorded immediately before the
   independent-thread-scheduling model landed (and the explicit
   [~reconvergence:Stack] spelling must agree with the default).  ITS
   is accounting plus liveness: the per-branch lost-lane attribution
   must close exactly against the global counter under both models,
   non-divergent kernels must cost identical cycles under both,
   barriers reached through divergent control flow must not deadlock,
   MinPC scheduling must be deterministic (byte-identical reports for
   any domain-pool size), the runaway-loop guard must be per-lane, and
   generated kernels must produce the same final memory under both
   models (qcheck). *)

module E = Darm_harness.Experiment
module Report = Darm_harness.Report
module Registry = Darm_kernels.Registry
module Kernel = Darm_kernels.Kernel
module Memory = Darm_sim.Memory
module M = Darm_sim.Metrics
module Sim = Darm_sim.Simulator
module Gen = Darm_fuzz.Gen
module Parser = Darm_ir.Parser
module J = Darm_obs.Json

let qcheck t = QCheck_alcotest.to_alcotest t
let its = Sim.Its Sim.default_its_params
let hier = Sim.Hier Sim.default_hier_params

(* ------------------------------------------------------------------ *)
(* Stack byte-identity *)

(* (tag, block size, base cycles, DARM cycles) under E.run defaults
   (seed 2022, each kernel's default n), recorded on the commit before
   reconvergence became pluggable.  The same table pins the flat memory
   model in suite_mem_model.ml; any drift here means the stack path was
   not a pure refactor. *)
let golden_stack =
  [
    ("SB1", 64, 114816, 72064);
    ("SB2", 64, 96998, 63538);
    ("SB3", 64, 210662, 121906);
    ("SB1-R", 64, 115328, 79744);
    ("SB2-R", 64, 133142, 105384);
    ("SB3-R", 64, 209190, 129070);
    ("LUD", 16, 544000, 272640);
    ("BIT", 64, 215776, 145408);
    ("DCT", 64, 24576, 22656);
    ("MS", 64, 215585, 198612);
  ]

let test_stack_golden_cycles () =
  List.iter
    (fun (tag, block_size, base_cycles, opt_cycles) ->
      match Registry.find tag with
      | None -> Alcotest.failf "golden kernel %s not registered" tag
      | Some k ->
          let r = E.run ~reconvergence:Sim.Stack k ~block_size in
          Alcotest.(check bool) (tag ^ " correct") true r.E.correct;
          Alcotest.(check int)
            (Printf.sprintf "%s/bs%d base cycles" tag block_size)
            base_cycles r.E.base.M.cycles;
          Alcotest.(check int)
            (Printf.sprintf "%s/bs%d DARM cycles" tag block_size)
            opt_cycles r.E.opt.M.cycles;
          (* the explicit spelling and the default must be the same run *)
          let d = E.run k ~block_size in
          Alcotest.(check int)
            (tag ^ " explicit Stack = default, base")
            d.E.base.M.cycles r.E.base.M.cycles;
          Alcotest.(check int)
            (tag ^ " explicit Stack = default, opt")
            d.E.opt.M.cycles r.E.opt.M.cycles)
    golden_stack

(* ------------------------------------------------------------------ *)
(* Every simulated statistic, all four machine models *)

(* Canonical rendering of every counter a run produces: the aggregate
   [M.t] fields, the per-block cycles, and the per-branch and per-site
   attribution in their deterministic orders.  Two runs agree on this
   string iff every statistic the simulator reports agrees. *)
let canonical_stats (m : M.t) : string =
  let b = Buffer.create 1024 in
  let ints xs = String.concat "," (List.map string_of_int xs) in
  Printf.bprintf b "%s;blocks=%s"
    (ints
       [
         m.M.cycles; m.M.instructions; m.M.alu_issues; m.M.alu_active_lanes;
         m.M.mem_global; m.M.mem_shared; m.M.mem_flat;
         m.M.global_transactions; m.M.global_accesses; m.M.bank_conflicts;
         m.M.l1_hits; m.M.l1_misses; m.M.mem_stall_cycles;
         m.M.bank_conflict_cycles; m.M.mem_cycles; m.M.divergent_branches;
         m.M.lost_lane_cycles; m.M.reconvergences; m.M.barriers;
       ])
    (ints m.M.block_cycles);
  List.iter
    (fun (id, (s : M.branch_stat)) ->
      Printf.bprintf b ";br:%s=%s" id
        (ints
           [
             s.M.br_divergences; s.M.br_cycles; s.M.br_lost_lane_cycles;
             s.M.br_reconvergences;
           ]))
    (M.branch_stats m);
  List.iter
    (fun (id, (s : M.mem_site_stat)) ->
      Printf.bprintf b ";site:%s=%s" id
        (ints
           [
             s.M.ms_issues; s.M.ms_accesses; s.M.ms_transactions;
             s.M.ms_l1_hits; s.M.ms_l1_misses; s.M.ms_bank_conflicts;
             s.M.ms_bank_conflict_cycles; s.M.ms_stall_cycles; s.M.ms_cycles;
           ]))
    (M.site_stats m);
  Buffer.contents b

let stats_digest (m : M.t) : string =
  String.sub (Digest.to_hex (Digest.string (canonical_stats m))) 0 16

let models =
  [
    ("flat_stack", Sim.Flat, Sim.Stack);
    ("hier_stack", hier, Sim.Stack);
    ("flat_its", Sim.Flat, its);
    ("hier_its", hier, its);
  ]

(* (tag, model, base cycles, DARM cycles, base digest, DARM digest) for
   every registry kernel at its first block size, default n, seed 2022,
   recorded before the simulator's issue loop was rewritten for speed.
   The digest is [stats_digest]: a change to any counter of either run
   — aggregate, per-block, per-branch or per-site — changes it. *)
let golden_stats =
  [
    ("SB1", "flat_stack", 114816, 72064, "14da3511f73e9906", "f2f2010b94cc2112");
    ("SB1", "hier_stack", 121984, 79232, "54a12356369727a6", "00e57a89124f29b4");
    ("SB1", "flat_its", 114816, 72064, "651b5d7ae4f8504b", "f2f2010b94cc2112");
    ("SB1", "hier_its", 121984, 79232, "e979ecf262350b3b", "00e57a89124f29b4");
    ("SB2", "flat_stack", 96998, 63538, "d5079425377ccec8", "6220d41bf65e87f3");
    ("SB2", "hier_stack", 104166, 70706, "d4d39495825b6234", "8aeab8edd6f6893f");
    ("SB2", "flat_its", 96998, 63538, "1eea2ba4273e98c9", "1859fdaef9799de5");
    ("SB2", "hier_its", 104166, 70706, "bedd3ba09080d18e", "02074d9179793cb9");
    ("SB3", "flat_stack", 210662, 121906, "37a11db99587589c", "63fbfd111c3395a0");
    ("SB3", "hier_stack", 217830, 129074, "95a81f52f25ca667", "0b02f7b5062b2509");
    ("SB3", "flat_its", 210662, 121906, "58b0e9978f302d68", "7d1d776698c2f124");
    ("SB3", "hier_its", 217830, 129074, "dc1a30ccb448d27a", "a3032ebc0a601a8b");
    ("SB1-R", "flat_stack", 115328, 79744, "1d724800491d35b2", "cc11bb1955fc0e03");
    ("SB1-R", "hier_stack", 122496, 86912, "ff37aade13a2f8f8", "3c2488f4d3c7730e");
    ("SB1-R", "flat_its", 115328, 79744, "71853916bb362377", "6d261d4ffc426e6c");
    ("SB1-R", "hier_its", 122496, 86912, "6d58d14f7e1c7041", "51a9aef6d44b6f4c");
    ("SB2-R", "flat_stack", 133142, 105384, "bfd8c31217779890", "5104aafe1aba62fc");
    ("SB2-R", "hier_stack", 140310, 112552, "0a52979744c1d241", "7bfd936ae6663959");
    ("SB2-R", "flat_its", 133142, 105384, "980c1919f099a6d2", "9b0013c845b42652");
    ("SB2-R", "hier_its", 140310, 112552, "133d9bb90dd9bdb5", "69c85d834112ee1a");
    ("SB3-R", "flat_stack", 209190, 129070, "a292cb94e45a9537", "dae77894ee9daf29");
    ("SB3-R", "hier_stack", 216358, 136238, "f62a317a8c5f2357", "878d0b280869c5f1");
    ("SB3-R", "flat_its", 209190, 129070, "c04badad76d9f88c", "6ce50e84bd321d11");
    ("SB3-R", "hier_its", 216358, 136238, "39a37224ffa7b54c", "9d79cec474e1b6ee");
    ("LUD", "flat_stack", 544000, 272640, "ad0c7d7524ba4e4f", "45a1d4023ce91c85");
    ("LUD", "hier_stack", 302336, 167424, "e46fff7b52d63086", "13cc580b2563a484");
    ("LUD", "flat_its", 544000, 272640, "810d51abe34ae42c", "0b6d1f299a86a5a4");
    ("LUD", "hier_its", 302336, 167424, "fe6e305b11cd4cc1", "c1281b9459293654");
    ("BIT", "flat_stack", 215776, 145408, "15cc0e4bff9a4a8b", "8fd281be6f0f193f");
    ("BIT", "hier_stack", 216544, 146176, "91840b3d3bd8a27d", "97c71cc56f10bbc0");
    ("BIT", "flat_its", 215776, 168592, "b69db674aabcb8ca", "6ac899b530c3a7d1");
    ("BIT", "hier_its", 216544, 169360, "cb55a6fd9791b72d", "491889bee251159b");
    ("DCT", "flat_stack", 24576, 22656, "8723c001dd86de1d", "55f174ec9fc25a47");
    ("DCT", "hier_stack", 31744, 29824, "96efb489004950b7", "41a9be0ac465774d");
    ("DCT", "flat_its", 24576, 22656, "d67c6d49284935e0", "021f23267e023fcb");
    ("DCT", "hier_its", 31744, 29824, "50a5c7bbc2d3620a", "2da6d9ce6ca1b74d");
    ("MS", "flat_stack", 215585, 198612, "5aa5972b654065ac", "7996fece8f1c8d14");
    ("MS", "hier_stack", 215969, 198996, "173cd3b4868b3803", "7636e45c27f68a61");
    ("MS", "flat_its", 215585, 198612, "f4288eae7bd37a52", "d986fb1124b2d283");
    ("MS", "hier_its", 215969, 198996, "93f96ae2eea1a680", "ddb2d327d681c235");
    ("PCM", "flat_stack", 16972, 13740, "6768fe8bb448fc2c", "fc4aab0900fa305f");
    ("PCM", "hier_stack", 23568, 18380, "b1e62eb32e8dfd16", "3e401714a74a62f1");
    ("PCM", "flat_its", 16972, 13740, "c3ecaf0c786810be", "dae9d7c9d0c73adb");
    ("PCM", "hier_its", 23568, 18380, "04e0706040c9ca46", "7efd7123961db2ab");
    ("IDENT", "flat_stack", 6592, 3312, "36a9a189e0fe9e25", "fd9d2936d9b8d512");
    ("IDENT", "hier_stack", 4928, 3696, "308a3981c2210ba8", "b117d1265ab022e9");
    ("IDENT", "flat_its", 6592, 3312, "81f7b00e442d9d60", "fd9d2936d9b8d512");
    ("IDENT", "hier_its", 4928, 3696, "3279e79975b7df7a", "b117d1265ab022e9");
    ("FLAT", "flat_stack", 8512, 7712, "7c9bade65fd95089", "33d4bc45b2dce091");
    ("FLAT", "hier_stack", 6848, 8096, "ffaf145a27e8f59e", "2af3b5795a58a521");
    ("FLAT", "flat_its", 8512, 7712, "f887713f57db2276", "e485fa4ab686078b");
    ("FLAT", "hier_its", 6848, 8096, "26bd397145b1b668", "2fcf01f141ddc714");
    ("FDCT", "flat_stack", 11392, 10848, "abc5e1b7e0fb03f4", "f4e526c589453936");
    ("FDCT", "hier_stack", 14976, 14432, "841ab7c2df19eeed", "3908694726e8fcee");
    ("FDCT", "flat_its", 11392, 10848, "4ff4a0f4e2e4a851", "9a58ebc105363514");
    ("FDCT", "hier_its", 14976, 14432, "0bc902c1013f8f23", "e883c1ccfa690168");
  ]

let test_all_models_golden_stats () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      List.iter
        (fun (model, mem_model, reconvergence) ->
          let r = E.run ~mem_model ~reconvergence k ~block_size in
          let tag = k.Kernel.tag in
          Alcotest.(check bool) (tag ^ " " ^ model ^ " correct") true r.E.correct;
          let got =
            ( r.E.base.M.cycles, r.E.opt.M.cycles, stats_digest r.E.base,
              stats_digest r.E.opt )
          in
          let bc, oc, bd, od = got in
          match
            List.find_opt (fun (t, m, _, _, _, _) -> t = tag && m = model)
              golden_stats
          with
          | None ->
              Alcotest.failf "no golden row; record: (%S, %S, %d, %d, %S, %S);"
                tag model bc oc bd od
          | Some (_, _, gbc, goc, gbd, god) ->
              let what = Printf.sprintf "%s/bs%d %s" tag block_size model in
              Alcotest.(check int) (what ^ " base cycles") gbc bc;
              Alcotest.(check int) (what ^ " DARM cycles") goc oc;
              Alcotest.(check string) (what ^ " base stats digest") gbd bd;
              Alcotest.(check string) (what ^ " DARM stats digest") god od)
        models)
    Registry.all

(* ------------------------------------------------------------------ *)
(* Final memory, all four models *)

(* Every global-memory cell rendered with its constructor
   ([Testlib.cell_string]), so a cell that keeps its integer value but
   changes kind (an [Rbool true] stored back as [Rint 1]) changes the
   digest. *)
let canonical_memory (g : Memory.t) : string =
  String.concat ";"
    (List.init (Memory.size g) (fun off ->
         Testlib.cell_string (Memory.read g off)))

let memory_digest (g : Memory.t) : string =
  String.sub (Digest.to_hex (Digest.string (canonical_memory g))) 0 16

(* ((tag, model), (base digest, DARM digest)): [memory_digest] of the
   whole global memory after the baseline and the DARM run of every
   registry kernel at its first block size, default n, seed 2022,
   recorded before the simulator's register file was unboxed. *)
let golden_memory =
  [
    (("SB1", "flat_stack"), ("e6bea7f3a467c123", "e6bea7f3a467c123"));
    (("SB1", "hier_stack"), ("e6bea7f3a467c123", "e6bea7f3a467c123"));
    (("SB1", "flat_its"), ("e6bea7f3a467c123", "e6bea7f3a467c123"));
    (("SB1", "hier_its"), ("e6bea7f3a467c123", "e6bea7f3a467c123"));
    (("SB2", "flat_stack"), ("a4bb3118bf78eaef", "a4bb3118bf78eaef"));
    (("SB2", "hier_stack"), ("a4bb3118bf78eaef", "a4bb3118bf78eaef"));
    (("SB2", "flat_its"), ("a4bb3118bf78eaef", "a4bb3118bf78eaef"));
    (("SB2", "hier_its"), ("a4bb3118bf78eaef", "a4bb3118bf78eaef"));
    (("SB3", "flat_stack"), ("2284a93d09abe660", "2284a93d09abe660"));
    (("SB3", "hier_stack"), ("2284a93d09abe660", "2284a93d09abe660"));
    (("SB3", "flat_its"), ("2284a93d09abe660", "2284a93d09abe660"));
    (("SB3", "hier_its"), ("2284a93d09abe660", "2284a93d09abe660"));
    (("SB1-R", "flat_stack"), ("c0a8cdb6ba4e0f87", "c0a8cdb6ba4e0f87"));
    (("SB1-R", "hier_stack"), ("c0a8cdb6ba4e0f87", "c0a8cdb6ba4e0f87"));
    (("SB1-R", "flat_its"), ("c0a8cdb6ba4e0f87", "c0a8cdb6ba4e0f87"));
    (("SB1-R", "hier_its"), ("c0a8cdb6ba4e0f87", "c0a8cdb6ba4e0f87"));
    (("SB2-R", "flat_stack"), ("7e88a372423f5fb5", "7e88a372423f5fb5"));
    (("SB2-R", "hier_stack"), ("7e88a372423f5fb5", "7e88a372423f5fb5"));
    (("SB2-R", "flat_its"), ("7e88a372423f5fb5", "7e88a372423f5fb5"));
    (("SB2-R", "hier_its"), ("7e88a372423f5fb5", "7e88a372423f5fb5"));
    (("SB3-R", "flat_stack"), ("5d4cc3d5d6be0a63", "5d4cc3d5d6be0a63"));
    (("SB3-R", "hier_stack"), ("5d4cc3d5d6be0a63", "5d4cc3d5d6be0a63"));
    (("SB3-R", "flat_its"), ("5d4cc3d5d6be0a63", "5d4cc3d5d6be0a63"));
    (("SB3-R", "hier_its"), ("5d4cc3d5d6be0a63", "5d4cc3d5d6be0a63"));
    (("LUD", "flat_stack"), ("9e8de0ceea34956e", "9e8de0ceea34956e"));
    (("LUD", "hier_stack"), ("9e8de0ceea34956e", "9e8de0ceea34956e"));
    (("LUD", "flat_its"), ("9e8de0ceea34956e", "9e8de0ceea34956e"));
    (("LUD", "hier_its"), ("9e8de0ceea34956e", "9e8de0ceea34956e"));
    (("BIT", "flat_stack"), ("12c264972c5d6f9a", "12c264972c5d6f9a"));
    (("BIT", "hier_stack"), ("12c264972c5d6f9a", "12c264972c5d6f9a"));
    (("BIT", "flat_its"), ("12c264972c5d6f9a", "12c264972c5d6f9a"));
    (("BIT", "hier_its"), ("12c264972c5d6f9a", "12c264972c5d6f9a"));
    (("DCT", "flat_stack"), ("c8e88b122ed3ab25", "c8e88b122ed3ab25"));
    (("DCT", "hier_stack"), ("c8e88b122ed3ab25", "c8e88b122ed3ab25"));
    (("DCT", "flat_its"), ("c8e88b122ed3ab25", "c8e88b122ed3ab25"));
    (("DCT", "hier_its"), ("c8e88b122ed3ab25", "c8e88b122ed3ab25"));
    (("MS", "flat_stack"), ("1114776b0afd2788", "1114776b0afd2788"));
    (("MS", "hier_stack"), ("1114776b0afd2788", "1114776b0afd2788"));
    (("MS", "flat_its"), ("1114776b0afd2788", "1114776b0afd2788"));
    (("MS", "hier_its"), ("1114776b0afd2788", "1114776b0afd2788"));
    (("PCM", "flat_stack"), ("360fde612d86dfcf", "360fde612d86dfcf"));
    (("PCM", "hier_stack"), ("360fde612d86dfcf", "360fde612d86dfcf"));
    (("PCM", "flat_its"), ("360fde612d86dfcf", "360fde612d86dfcf"));
    (("PCM", "hier_its"), ("360fde612d86dfcf", "360fde612d86dfcf"));
    (("IDENT", "flat_stack"), ("5e7f003ef8553db4", "5e7f003ef8553db4"));
    (("IDENT", "hier_stack"), ("5e7f003ef8553db4", "5e7f003ef8553db4"));
    (("IDENT", "flat_its"), ("5e7f003ef8553db4", "5e7f003ef8553db4"));
    (("IDENT", "hier_its"), ("5e7f003ef8553db4", "5e7f003ef8553db4"));
    (("FLAT", "flat_stack"), ("5e7f003ef8553db4", "5e7f003ef8553db4"));
    (("FLAT", "hier_stack"), ("5e7f003ef8553db4", "5e7f003ef8553db4"));
    (("FLAT", "flat_its"), ("5e7f003ef8553db4", "5e7f003ef8553db4"));
    (("FLAT", "hier_its"), ("5e7f003ef8553db4", "5e7f003ef8553db4"));
    (("FDCT", "flat_stack"), ("3b79fa10cb091984", "3b79fa10cb091984"));
    (("FDCT", "hier_stack"), ("3b79fa10cb091984", "3b79fa10cb091984"));
    (("FDCT", "flat_its"), ("3b79fa10cb091984", "3b79fa10cb091984"));
    (("FDCT", "hier_its"), ("3b79fa10cb091984", "3b79fa10cb091984"));
  ]

let check_digests what (gb, go) (b, o) =
  Alcotest.(check string) (what ^ " base memory digest") gb b;
  Alcotest.(check string) (what ^ " DARM memory digest") go o

let test_all_models_golden_memory () =
  let got =
    List.concat_map
      (fun (k : Kernel.t) ->
        let block_size = List.hd k.Kernel.block_sizes in
        List.map
          (fun (model, mem_model, reconvergence) ->
            let config = { E.sim_config with Sim.mem_model; reconvergence } in
            let final ~meld =
              let inst =
                k.Kernel.make ~seed:2022 ~block_size ~n:k.Kernel.default_n
              in
              if meld then ignore (Darm_core.Pass.run inst.Kernel.func);
              ignore (E.run_instance ~config inst);
              memory_digest inst.Kernel.global
            in
            ((k.Kernel.tag, model), (final ~meld:false, final ~meld:true)))
          models)
      Registry.all
  in
  Testlib.check_table ~what:"registry final memory" golden_memory got
    ~label:(fun (t, m) -> t ^ " " ^ m)
    ~record:(fun (t, m) (b, o) ->
      Printf.sprintf "((%S, %S), (%S, %S));" t m b o)
    check_digests

(* ------------------------------------------------------------------ *)
(* Attribution identities (both models) *)

(* The per-branch divergence attribution must close exactly against
   the global counters: splits sum to [divergent_branches], lost-lane
   cycles sum to [lost_lane_cycles], reconvergence joins never exceed
   the global count, nothing goes negative. *)
let check_attr_identities ~what (m : M.t) =
  let stats = M.branch_stats m in
  let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 stats in
  List.iter
    (fun (id, (s : M.branch_stat)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s counters non-negative" what id)
        true
        (s.M.br_divergences >= 0 && s.M.br_cycles >= 0
        && s.M.br_lost_lane_cycles >= 0
        && s.M.br_reconvergences >= 0))
    stats;
  Alcotest.(check int)
    (what ^ " per-branch splits sum")
    m.M.divergent_branches
    (sum (fun s -> s.M.br_divergences));
  Alcotest.(check int)
    (what ^ " per-branch lost-lane cycles sum exactly")
    m.M.lost_lane_cycles
    (sum (fun s -> s.M.br_lost_lane_cycles));
  Alcotest.(check bool)
    (what ^ " per-branch reconvergences bounded")
    true
    (sum (fun s -> s.M.br_reconvergences) <= m.M.reconvergences)

let test_attr_identities_both_models () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      List.iter
        (fun (model, rc) ->
          let r = E.run ~n ~reconvergence:rc k ~block_size in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s correct" k.Kernel.tag model)
            true r.E.correct;
          check_attr_identities
            ~what:(Printf.sprintf "%s %s base" k.Kernel.tag model)
            r.E.base;
          check_attr_identities
            ~what:(Printf.sprintf "%s %s opt" k.Kernel.tag model)
            r.E.opt)
        [ ("stack", Sim.Stack); ("its", its) ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* Direct-execution helper for hand-written kernels *)

let parse text =
  match Parser.parse_func text with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse: %s" e

(* Mirrors the fuzz oracle's launch convention: two global arrays with
   deterministic contents, one block-per-128/64 launch.  [meld] runs the
   DARM pass first.  Returns the metrics and the whole global memory. *)
let exec_global ?(mem_model = Sim.Flat) ?(reconvergence = Sim.Stack)
    ?(max_cycles = 1_000_000) ?(block_size = 64) ?(n = 128) ?(meld = false)
    text : M.t * Memory.t =
  let f = parse text in
  if meld then ignore (Darm_core.Pass.run f);
  let a_init = Kernel.random_int_array ~seed:11 ~n ~bound:1000 in
  let b_init = Kernel.random_int_array ~seed:12 ~n ~bound:1000 in
  let global = Memory.create ~space:Memory.Sp_global (2 * n) in
  let pa = Memory.alloc_of_int_array global a_init in
  let pb = Memory.alloc_of_int_array global b_init in
  let config =
    {
      Sim.default_config with
      max_cycles_per_warp = max_cycles;
      mem_model;
      reconvergence;
    }
  in
  let launch =
    { Sim.grid_dim = max 1 (n / block_size); block_dim = block_size }
  in
  let m = Sim.run ~config f ~args:[| pa; pb |] ~global launch in
  (m, global)

(* [exec_global], with both arrays read back as integers *)
let exec ?mem_model ?reconvergence ?max_cycles ?block_size ?(n = 128) text :
    M.t * Memory.rv array =
  let m, global =
    exec_global ?mem_model ?reconvergence ?max_cycles ?block_size ~n text
  in
  let base = Memory.Rptr (Memory.Sp_global, 0) in
  (m, Kernel.ints (Memory.read_int_array global base (2 * n)))

(* ------------------------------------------------------------------ *)
(* Non-divergent kernels: the models must agree cycle-for-cycle *)

let uniform_kernel =
  {|
kernel @uniform(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  %1 = block.dim
  %2 = block.idx
  %3 = mul %2, %1
  %4 = add %3, %0
  %5 = gep %a, %4
  %6 = load i32, %5
  %7 = add %6, 7
  %8 = gep %b, %4
  store %7, %8
  ret
}
|}

let test_uniform_identical_cycles () =
  let ms, out_s = exec ~reconvergence:Sim.Stack uniform_kernel in
  let mi, out_i = exec ~reconvergence:its uniform_kernel in
  Alcotest.(check int) "cycles identical" ms.M.cycles mi.M.cycles;
  Alcotest.(check int) "instructions identical" ms.M.instructions
    mi.M.instructions;
  Alcotest.(check int) "no divergence (stack)" 0 ms.M.divergent_branches;
  Alcotest.(check int) "no divergence (its)" 0 mi.M.divergent_branches;
  Alcotest.(check bool) "memory identical" true
    (Kernel.rv_array_equal out_s out_i)

(* ------------------------------------------------------------------ *)
(* Barrier reached through divergent control flow *)

(* Lanes take divergent-trip loops, then all meet a block-uniform
   barrier and read a neighbour's shared-tile cell.  Under ITS the
   lanes arrive at the barrier at different points of the schedule;
   the convergence optimizer must still release them (no deadlock) and
   the final memory must match the stack model. *)
let barrier_kernel =
  {|
kernel @its_smoke(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = alloc.shared 128
  %1 = thread.idx
  %2 = block.dim
  %3 = block.idx
  %4 = mul %3, %2
  %5 = add %4, %1
  %6 = gep %b, %5
  %7 = gep %a, %5
  %8 = load i32, %7
  %9 = and %1, 3
  %10 = gep %0, %1
  store %8, %10
  syncthreads
  br while.head
while.head:
  %11 = phi i32 [%14, while.body], [0, entry]
  %12 = phi i32 [%15, while.body], [%8, entry]
  %13 = icmp slt %11, %9
  condbr %13, while.body, while.end
while.body:
  %14 = add %11, 1
  %15 = add %12, %11
  br while.head
while.end:
  syncthreads
  %16 = and %1, 1
  %17 = icmp slt 0, %16
  condbr %17, if.then, if.else
if.then:
  %18 = sub %1, 1
  %19 = gep %0, %18
  %20 = load i32, %19
  br if.end
if.else:
  br if.end
if.end:
  %21 = phi i32 [%20, if.then], [%12, if.else]
  %22 = add %21, %12
  store %22, %6
  ret
}
|}

let test_barrier_under_divergence () =
  let ms, out_s = exec ~reconvergence:Sim.Stack barrier_kernel in
  let mi, out_i = exec ~reconvergence:its barrier_kernel in
  Alcotest.(check bool) "stack run retired cycles" true (ms.M.cycles > 0);
  Alcotest.(check bool) "its run retired cycles" true (mi.M.cycles > 0);
  Alcotest.(check bool) "final memory identical" true
    (Kernel.rv_array_equal out_s out_i);
  check_attr_identities ~what:"barrier-kernel its" mi

(* ------------------------------------------------------------------ *)
(* Per-lane runaway-loop guard *)

(* Odd and even lanes run disjoint 200-trip loops.  The stack model
   serializes the two arms on one warp-wide budget (~1600+ issues);
   under ITS each lane only spends budget on issues it participates in
   (~800).  A 1200-issue budget therefore separates the two models:
   ITS completes, the stack model must trip its guard — proof the ITS
   guard is per-lane, not per-warp-total. *)
let perlane_kernel =
  {|
kernel @perlane(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  %1 = and %0, 1
  %2 = icmp slt 0, %1
  condbr %2, odd.head, even.head
odd.head:
  %3 = phi i32 [%5, odd.body], [0, entry]
  %4 = icmp slt %3, 200
  condbr %4, odd.body, odd.end
odd.body:
  %5 = add %3, 1
  br odd.head
odd.end:
  ret
even.head:
  %6 = phi i32 [%8, even.body], [0, entry]
  %7 = icmp slt %6, 200
  condbr %7, even.body, even.end
even.body:
  %8 = add %6, 1
  br even.head
even.end:
  ret
}
|}

(* Odd lanes spin forever; the guard must turn the hang into a
   deterministic [Sim_error] under both models. *)
let runaway_kernel =
  {|
kernel @runaway(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  %1 = and %0, 1
  %2 = icmp slt 0, %1
  condbr %2, spin, exit
spin:
  br spin
exit:
  ret
}
|}

let test_per_lane_budget () =
  (match exec ~reconvergence:its ~max_cycles:1200 perlane_kernel with
  | m, _ -> Alcotest.(check bool) "its completes" true (m.M.cycles > 0)
  | exception Sim.Sim_error e ->
      Alcotest.failf "its tripped a per-lane budget it should fit: %s" e);
  (match exec ~reconvergence:Sim.Stack ~max_cycles:1200 perlane_kernel with
  | _ -> Alcotest.fail "stack budget should exhaust on the serialized arms"
  | exception Sim.Sim_error _ -> ())

(* The ITS budget is charged per issue, also while a group runs through
   a block without being rescheduled: the uniform kernel's 11 issues per
   lane fit a budget of 11 and exhaust a budget of 10, reported for the
   lowest lane. *)
let test_its_budget_exact () =
  (match exec ~reconvergence:its ~max_cycles:11 uniform_kernel with
  | m, _ -> Alcotest.(check bool) "budget 11 fits" true (m.M.cycles > 0)
  | exception Sim.Sim_error e -> Alcotest.failf "budget 11 should fit: %s" e);
  match exec ~reconvergence:its ~max_cycles:10 uniform_kernel with
  | _ -> Alcotest.fail "budget 10 must be exhausted"
  | exception Sim.Sim_error e ->
      Alcotest.(check string)
        "exhausted lane" "cycle budget exhausted in lane 0 (runaway loop?)" e

let test_runaway_guard_both_models () =
  List.iter
    (fun (model, rc) ->
      match exec ~reconvergence:rc ~max_cycles:10_000 runaway_kernel with
      | _ -> Alcotest.failf "%s: runaway loop must trip the guard" model
      | exception Sim.Sim_error _ -> ())
    [ ("stack", Sim.Stack); ("its", its) ]

(* ------------------------------------------------------------------ *)
(* Hand-written kernels, every statistic pinned under all four models *)

(* Lane [t] runs [t] trips, so the loop exit diverges on every
   iteration and under ITS a lane that pops the loop's split at the
   exit may still hold the same split from earlier iterations; without
   the reconvergence wait, the last lane pops those entries with no
   other holder left.  No registry kernel reaches either case. *)
let divloop_kernel =
  {|
kernel @divloop(%a: ptr(global), %b: ptr(global)) {
entry:
  %0 = thread.idx
  br head
head:
  %2 = phi i32 [%4, body], [0, entry]
  %3 = icmp slt %2, %0
  condbr %3, body, exit
body:
  %4 = add %2, 1
  br head
exit:
  %5 = gep %a, %0
  store %2, %5
  ret
}
|}

let handwritten_models =
  models
  @ [ ("flat_its_nowait", Sim.Flat, Sim.Its { Sim.its_reconv_wait = false }) ]

(* (kernel, model, cycles, [stats_digest]), recorded before the
   simulator's issue loop was rewritten for speed *)
let golden_handwritten =
  [
    ("divloop", "flat_stack", 964, "337c2d1200b77d17");
    ("divloop", "hier_stack", 1140, "051ea67d82ef428c");
    ("divloop", "flat_its", 12920, "42276f82d1ba6028");
    ("divloop", "hier_its", 5096, "8bd995e563f69793");
    ("divloop", "flat_its_nowait", 964, "d5dd12db04a7f334");
    ("its_smoke", "flat_stack", 612, "b44ccfe5b153f595");
    ("its_smoke", "hier_stack", 964, "89bc1702bde3693f");
    ("its_smoke", "flat_its", 628, "2a713d2c5965c963");
    ("its_smoke", "hier_its", 980, "8f85f2285e65d79b");
    ("its_smoke", "flat_its_nowait", 612, "03d3258105386723");
    ("perlane", "flat_stack", 4826, "a95f97effff9426e");
    ("perlane", "hier_stack", 4826, "a95f97effff9426e");
    ("perlane", "flat_its", 4826, "3c6cfbd1212e5f45");
    ("perlane", "hier_its", 4826, "3c6cfbd1212e5f45");
    ("perlane", "flat_its_nowait", 4826, "3c6cfbd1212e5f45");
  ]

let test_handwritten_golden () =
  List.iter
    (fun (kname, text) ->
      List.iter
        (fun (model, mem_model, reconvergence) ->
          let m, _ = exec ~mem_model ~reconvergence text in
          let cycles = m.M.cycles and digest = stats_digest m in
          match
            List.find_opt
              (fun (k, md, _, _) -> k = kname && md = model)
              golden_handwritten
          with
          | None ->
              Alcotest.failf "no golden row; record: (%S, %S, %d, %S);" kname
                model cycles digest
          | Some (_, _, gc, gd) ->
              Alcotest.(check int) (kname ^ " " ^ model ^ " cycles") gc cycles;
              Alcotest.(check string)
                (kname ^ " " ^ model ^ " stats digest")
                gd digest)
        handwritten_models)
    [
      ("divloop", divloop_kernel);
      ("its_smoke", barrier_kernel);
      ("perlane", perlane_kernel);
    ]

(* ((kernel, model), (base digest, DARM digest)): [memory_digest] of
   the global memory after running each hand-written kernel as written
   and after the DARM pass, recorded before the simulator's register
   file was unboxed *)
let golden_handwritten_memory =
  [
    (("divloop", "flat_stack"), ("cc5fabc9af0e928e", "cc5fabc9af0e928e"));
    (("divloop", "hier_stack"), ("cc5fabc9af0e928e", "cc5fabc9af0e928e"));
    (("divloop", "flat_its"), ("cc5fabc9af0e928e", "cc5fabc9af0e928e"));
    (("divloop", "hier_its"), ("cc5fabc9af0e928e", "cc5fabc9af0e928e"));
    (("divloop", "flat_its_nowait"), ("cc5fabc9af0e928e", "cc5fabc9af0e928e"));
    (("its_smoke", "flat_stack"), ("0b318685a18a786c", "0b318685a18a786c"));
    (("its_smoke", "hier_stack"), ("0b318685a18a786c", "0b318685a18a786c"));
    (("its_smoke", "flat_its"), ("0b318685a18a786c", "0b318685a18a786c"));
    (("its_smoke", "hier_its"), ("0b318685a18a786c", "0b318685a18a786c"));
    (("its_smoke", "flat_its_nowait"), ("0b318685a18a786c", "0b318685a18a786c"));
    (("perlane", "flat_stack"), ("a7450585ab898332", "a7450585ab898332"));
    (("perlane", "hier_stack"), ("a7450585ab898332", "a7450585ab898332"));
    (("perlane", "flat_its"), ("a7450585ab898332", "a7450585ab898332"));
    (("perlane", "hier_its"), ("a7450585ab898332", "a7450585ab898332"));
    (("perlane", "flat_its_nowait"), ("a7450585ab898332", "a7450585ab898332"));
    (("uniform", "flat_stack"), ("3015233d6e88edf4", "3015233d6e88edf4"));
    (("uniform", "hier_stack"), ("3015233d6e88edf4", "3015233d6e88edf4"));
    (("uniform", "flat_its"), ("3015233d6e88edf4", "3015233d6e88edf4"));
    (("uniform", "hier_its"), ("3015233d6e88edf4", "3015233d6e88edf4"));
    (("uniform", "flat_its_nowait"), ("3015233d6e88edf4", "3015233d6e88edf4"));
  ]

let test_handwritten_golden_memory () =
  let got =
    List.concat_map
      (fun (kname, text) ->
        List.map
          (fun (model, mem_model, reconvergence) ->
            let final ~meld =
              memory_digest
                (snd (exec_global ~mem_model ~reconvergence ~meld text))
            in
            ((kname, model), (final ~meld:false, final ~meld:true)))
          handwritten_models)
      [
        ("divloop", divloop_kernel);
        ("its_smoke", barrier_kernel);
        ("perlane", perlane_kernel);
        ("uniform", uniform_kernel);
      ]
  in
  Testlib.check_table ~what:"hand-written final memory" golden_handwritten_memory got
    ~label:(fun (k, m) -> k ^ " " ^ m)
    ~record:(fun (k, m) (b, o) ->
      Printf.sprintf "((%S, %S), (%S, %S));" k m b o)
    check_digests

(* Generated smoke kernel 23, melded: under ITS a reconvergence pop
   wakes lanes the same pops pass has already visited, so their own
   pops are still pending when the next group issues — the scheduler
   must not run that group through its block before they happen. *)
let golden_generated =
  [
    (23, "flat_stack", 4856, "84652cf8f77ced5e");
    (23, "hier_stack", 3116, "b4482b2802e15466");
    (23, "flat_its", 8552, "e8bae1e8c8b869be");
    (23, "hier_its", 4644, "3bdde434f87182ee");
  ]

let test_generated_golden () =
  List.iter
    (fun seed ->
      List.iter
        (fun (model, mem_model, reconvergence) ->
          let inst = Gen.instance ~cfg:Gen.smoke_cfg ~seed ~block_size:64 () in
          ignore (Darm_core.Pass.run inst.Kernel.func);
          let config = { E.sim_config with Sim.mem_model; reconvergence } in
          let m = E.run_instance ~config inst in
          let cycles = m.M.cycles and digest = stats_digest m in
          match
            List.find_opt
              (fun (sd, md, _, _) -> sd = seed && md = model)
              golden_generated
          with
          | None ->
              Alcotest.failf "no golden row; record: (%d, %S, %d, %S);" seed
                model cycles digest
          | Some (_, _, gc, gd) ->
              let what = Printf.sprintf "gen seed %d melded %s" seed model in
              Alcotest.(check int) (what ^ " cycles") gc cycles;
              Alcotest.(check string) (what ^ " stats digest") gd digest)
        models)
    [ 23 ]

(* ------------------------------------------------------------------ *)
(* MinPC determinism: byte-identical reports for any pool size *)

let test_its_report_byte_identical_across_jobs () =
  let points =
    List.map (fun k -> (k, List.hd k.Kernel.block_sizes)) Registry.all
  in
  let render jobs =
    let rs = Report.compute_many ~jobs ~n:256 ~reconvergence:its points in
    List.iter
      (fun r ->
        Alcotest.(check string)
          (r.Report.rp_kernel ^ " model tag")
          "its" r.Report.rp_reconvergence)
      rs;
    ( String.concat "\n" (List.map Report.to_text rs),
      J.to_string (Report.many_to_json rs) )
  in
  let t1, j1 = render 1 in
  let t2, j2 = render 2 in
  let t4, j4 = render 4 in
  Alcotest.(check string) "its text jobs 1 = 2" t1 t2;
  Alcotest.(check string) "its text jobs 1 = 4" t1 t4;
  Alcotest.(check string) "its json jobs 1 = 2" j1 j2;
  Alcotest.(check string) "its json jobs 1 = 4" j1 j4

(* ------------------------------------------------------------------ *)
(* Cross-model differential on generated kernels *)

let test_xmodel_generated =
  qcheck
    (QCheck2.Test.make ~count:25
       ~name:"stack and its agree on final memory (generated kernels)"
       QCheck2.Gen.(1 -- 10_000)
       (fun seed ->
         let run rc =
           (* a fresh instance per run: the kernel writes its buffers *)
           let inst = Gen.instance ~cfg:Gen.smoke_cfg ~seed ~block_size:64 () in
           let config = { E.sim_config with Sim.reconvergence = rc } in
           let m = E.run_instance ~config inst in
           (m, inst.Kernel.read_result ())
         in
         let _, out_s = run Sim.Stack in
         let mi, out_i = run its in
         check_attr_identities
           ~what:(Printf.sprintf "gen seed %d its" seed)
           mi;
         Kernel.rv_array_equal out_s out_i))

(* ------------------------------------------------------------------ *)
(* Composition: Hier x Its *)

let test_hier_its_composition () =
  List.iter
    (fun (k : Kernel.t) ->
      let block_size = List.hd k.Kernel.block_sizes in
      let n = min k.Kernel.default_n 512 in
      let r = E.run ~n ~mem_model:hier ~reconvergence:its k ~block_size in
      Alcotest.(check bool) (k.Kernel.tag ^ " correct") true r.E.correct;
      List.iter
        (fun (side, (m : M.t)) ->
          Alcotest.(check int)
            (Printf.sprintf "%s %s l1 classification covers every access"
               k.Kernel.tag side)
            m.M.global_accesses
            (m.M.l1_hits + m.M.l1_misses);
          check_attr_identities
            ~what:(Printf.sprintf "%s hier+its %s" k.Kernel.tag side)
            m)
        [ ("base", r.E.base); ("opt", r.E.opt) ])
    Registry.all

let suites =
  [
    ( "reconvergence",
      [
        Alcotest.test_case "stack: golden cycles pinned" `Slow
          test_stack_golden_cycles;
        Alcotest.test_case "all four models: every statistic pinned" `Slow
          test_all_models_golden_stats;
        Alcotest.test_case "all four models: final memory pinned" `Slow
          test_all_models_golden_memory;
        Alcotest.test_case "attribution identities under both models" `Quick
          test_attr_identities_both_models;
        Alcotest.test_case "non-divergent kernels cost identical cycles"
          `Quick test_uniform_identical_cycles;
        Alcotest.test_case "its: barrier under divergence is deadlock-free"
          `Quick test_barrier_under_divergence;
        Alcotest.test_case "its: runaway guard is per-lane" `Quick
          test_per_lane_budget;
        Alcotest.test_case "its: budget exact on straight-line issues" `Quick
          test_its_budget_exact;
        Alcotest.test_case "runaway loop trips the guard under both models"
          `Quick test_runaway_guard_both_models;
        Alcotest.test_case "hand-written kernels: every statistic pinned"
          `Quick test_handwritten_golden;
        Alcotest.test_case "hand-written kernels: final memory pinned" `Quick
          test_handwritten_golden_memory;
        Alcotest.test_case "its: pending pops end a group's run" `Quick
          test_generated_golden;
        Alcotest.test_case "its: report byte-identical across jobs" `Slow
          test_its_report_byte_identical_across_jobs;
        test_xmodel_generated;
        Alcotest.test_case "hier x its: composition invariants" `Quick
          test_hier_its_composition;
      ] );
  ]
