(* The four ledger workloads.  README.md says why each exists and which
   layer metric should move which end-to-end metric.

   Every layer is driven through its public functions, never through
   Experiment.run: that function memoizes baseline simulations and
   results in-process, so a repeated round would skip half its work. *)

open Darm_ir
module L = Layers
module Json = Darm_obs.Json
module Fsio = Darm_obs.Fsio
module MR = Darm_obs.Metrics_registry
module Sim = Darm_sim.Simulator
module Memory = Darm_sim.Memory
module Metrics = Darm_sim.Metrics
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module Pass = Darm_core.Pass
module Checker = Darm_checks.Checker
module Gen = Darm_fuzz.Gen
module Batch = Darm_fuzz.Batch
module Cache = Darm_harness.Result_cache

(* ------------------------------------------------------------------ *)
(* Calls into the layers                                               *)

let models : (string * Sim.config) list =
  let d = Sim.default_config in
  let hier = Sim.Hier Sim.default_hier_params in
  let its = Sim.Its Sim.default_its_params in
  [
    ("flat_stack", d);
    ("hier_stack", { d with Sim.mem_model = hier });
    ("flat_its", { d with Sim.reconvergence = its });
    ("hier_its", { d with Sim.mem_model = hier; reconvergence = its });
  ]

let simulate ((model, config) : string * Sim.config) (f : Ssa.func) ~args
    ~global launch : Metrics.t =
  let m =
    L.span ("gpu_sim." ^ model) (fun () ->
        Sim.run ~config f ~args ~global launch)
  in
  let c name v = L.count ~by:v (Printf.sprintf "gpu_sim.%s.%s" model name) in
  L.count "gpu_sim.calls";
  c "cycles" m.Metrics.cycles;
  c "warp_instrs" m.Metrics.instructions;
  c "lost_lane_cycles" m.Metrics.lost_lane_cycles;
  c "divergent_branches" m.Metrics.divergent_branches;
  c "l1_hits" m.Metrics.l1_hits;
  c "l1_accesses" (m.Metrics.l1_hits + m.Metrics.l1_misses);
  m

let meld (f : Ssa.func) : unit =
  let s = L.span "core.pass" (fun () -> Pass.run f) in
  let c name v = L.count ~by:v ("core.pass." ^ name) in
  c "iterations" s.Pass.iterations;
  c "pairs_scored" s.Pass.pairs_scored;
  c "candidates_prefiltered" s.Pass.candidates_prefiltered;
  c "melds_applied" s.Pass.melds_applied;
  c "analysis_recomputes_avoided" s.Pass.analysis_recomputes_avoided

let verify (f : Ssa.func) : unit =
  L.span "ir.verify" (fun () -> Verify.run_exn f)

let check_clean (f : Ssa.func) : unit =
  let r = L.span "checks.check_func" (fun () -> Checker.check_func f) in
  let errors = List.length (Checker.errors r) in
  L.count ~by:errors "checks.check_func.errors";
  if errors > 0 then
    failwith
      (Printf.sprintf "%d checker error(s) on a clean kernel: %s" errors
         (Checker.report_to_string r))

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)

(** Simulated cycles of one kernel under one model. *)
type outcome = {
  label : string;  (** kernel and block size, or the batch spec name *)
  model : string;
  base_cycles : int;
  opt_cycles : int;
}

type round = {
  kernels : int;  (** kernels taken through the whole pipeline *)
  failures : string list;
  outcomes : outcome list;
  values : (string * float) list;
      (** layer values only the round itself can read (Batch.run's own
          latency histograms); traced rounds only *)
}

type instance = {
  run_round : traced:bool -> round;
  replay : unit -> unit;
      (** after each traced round: repeats, from outside, the layer
          calls that the round makes inside a library function, to time
          them *)
  close : unit -> unit;
}

type t = { name : string; setup : seed:int -> instance }

(* run [f] per item; an exception fails that item only *)
let each (items : 'a list) ~(label : 'a -> string) (f : 'a -> outcome list) :
    round =
  let failures = ref [] and outcomes = ref [] in
  List.iter
    (fun x ->
      match f x with
      | os -> outcomes := List.rev_append os !outcomes
      | exception e ->
          failures :=
            Printf.sprintf "%s: %s" (label x) (Printexc.to_string e)
            :: !failures)
    items;
  {
    kernels = List.length items;
    failures = List.rev !failures;
    outcomes = List.rev !outcomes;
    values = [];
  }

let expect (ok : bool) (what : string) : unit = if not ok then failwith what

let outcome ~label ~model (bm : Metrics.t) (om : Metrics.t) : outcome =
  expect
    (bm.Metrics.cycles > 0 && om.Metrics.cycles > 0)
    (model ^ ": a run retired zero cycles");
  { label; model; base_cycles = bm.Metrics.cycles; opt_cycles = om.Metrics.cycles }

(* ------------------------------------------------------------------ *)
(* paper-sim: the fig7 + fig8 matrix under all four models             *)

let paper_points : (Kernel.t * int) list =
  List.concat_map
    (fun k -> List.map (fun bs -> (k, bs)) k.Kernel.block_sizes)
    (Registry.synthetic @ Registry.real_world)

let point_label ((k, bs) : Kernel.t * int) =
  Printf.sprintf "%s bs=%d" k.Kernel.tag bs

(* one point: the instances, pass, verify and comparisons of
   Experiment.run, repeated for every model *)
let paper_point ~seed ((k, bs) as p) (reference : Memory.rv array) :
    outcome list =
  let make () =
    L.span "kernels.make" (fun () ->
        k.Kernel.make ~seed ~block_size:bs ~n:k.Kernel.default_n)
  in
  (* Table II's baseline column: IR construction, then the O3 cleanup.
     The span's whole duration is that column; its self time is O3. *)
  L.span "transforms.o3" (fun () ->
      let f = (make ()).Kernel.func in
      ignore (Darm_transforms.Simplify_cfg.run f);
      ignore (Darm_transforms.Constfold.run f);
      ignore (Darm_transforms.Dce.run f));
  let opt = make () in
  meld opt.Kernel.func;
  verify opt.Kernel.func;
  List.mapi
    (fun i ((model, _) as m) ->
      let run (inst : Kernel.instance) =
        let r =
          simulate m inst.Kernel.func ~args:inst.Kernel.args
            ~global:inst.Kernel.global inst.Kernel.launch
        in
        (r, inst.Kernel.read_result ())
      in
      let bm, base_out = run (make ()) in
      expect
        (Kernel.rv_array_equal base_out reference)
        (model ^ ": baseline output differs from the host reference");
      (* the melded function, over fresh memory for every model after
         the first *)
      let om, opt_out =
        run
          (if i = 0 then opt
           else { (make ()) with Kernel.func = opt.Kernel.func })
      in
      expect
        (Kernel.rv_array_equal opt_out base_out)
        (model ^ ": melded output differs from the baseline");
      outcome ~label:(point_label p) ~model bm om)
    models

let paper_sim_on (points : (Kernel.t * int) list) : t =
  let setup ~seed =
    (* inputs and host reference outputs of every point *)
    let items =
      List.map
        (fun ((k, bs) as p) ->
          let inst = k.Kernel.make ~seed ~block_size:bs ~n:k.Kernel.default_n in
          (p, inst.Kernel.reference ()))
        points
    in
    {
      run_round =
        (fun ~traced:_ ->
          each items
            ~label:(fun (p, _) -> point_label p)
            (fun (p, r) -> paper_point ~seed p r));
      replay = ignore;
      close = ignore;
    }
  in
  { name = "paper-sim"; setup }

(* ------------------------------------------------------------------ *)
(* compile-large: ~500-block generated kernels, received as text      *)

(* Generator seeds 1 and 7 give max_depth-5 kernels of 521 and 457
   blocks.  They are fixed rather than drawn from --seed: pass and
   verify time grow steeply with block count, so a seed-drawn set would
   make run-to-run spread a property of the draw.  A round takes about
   6 s, so a 10 s run makes two; the 706- and 825-block kernels of
   seeds 4 and 2 would take 4 s and 17 s more.  --seed chooses the
   simulation inputs. *)
let large_seeds = [ 1; 7 ]

let large_cfg = { Gen.default_cfg with Gen.max_depth = 5 }

let large_block_size = 64

(* inputs as Batch.run builds them for a fuzz kernel: two arrays
   of [array_size] cells seeded from the input seed *)
let exec_generated ~input_seed (f : Ssa.func) : Metrics.t * int array =
  let n = large_cfg.Gen.array_size in
  let a = Kernel.random_int_array ~seed:(input_seed + 1) ~n ~bound:1000 in
  let b = Kernel.random_int_array ~seed:(input_seed + 2) ~n ~bound:1000 in
  let global = Memory.create ~space:Memory.Sp_global (2 * n) in
  let pa = Memory.alloc_of_int_array global a in
  let pb = Memory.alloc_of_int_array global b in
  let config =
    { Sim.default_config with Sim.max_cycles_per_warp = 10_000_000 }
  in
  let launch =
    {
      Sim.grid_dim = max 1 (n / large_block_size);
      block_dim = large_block_size;
    }
  in
  let m = simulate ("flat_stack", config) f ~args:[| pa; pb |] ~global launch in
  ( m,
    Array.append
      (Memory.read_int_array global pa n)
      (Memory.read_int_array global pb n) )

let compile_large : t =
  let setup ~seed =
    let texts =
      List.map
        (fun g ->
          let f =
            L.span "fuzz.gen" (fun () -> Gen.generate ~cfg:large_cfg ~seed:g ())
          in
          (g, L.span "ir.print" (fun () -> Printer.func_to_string f)))
        large_seeds
    in
    let label (g, _) = Printf.sprintf "gen_%d" g in
    let step ((_, text) as k) =
      let parse () =
        match L.span "ir.parse" (fun () -> Parser.parse_func text) with
        | Ok f -> f
        | Error e -> failwith ("parse: " ^ e)
      in
      let base = parse () in
      check_clean base;
      let opt = parse () in
      meld opt;
      verify opt;
      let bm, base_out = exec_generated ~input_seed:seed base in
      let om, opt_out = exec_generated ~input_seed:seed opt in
      expect (opt_out = base_out) "melded output differs from the baseline";
      [ outcome ~label:(label k) ~model:"flat_stack" bm om ]
    in
    {
      run_round = (fun ~traced:_ -> each texts ~label step);
      replay = ignore;
      close = ignore;
    }
  in
  { name = "compile-large"; setup }

(* ------------------------------------------------------------------ *)
(* fleet-cold / fleet-warm: Batch.run over a fuzz manifest             *)

(* Registry specs are left out: Batch.run computes them through
   Experiment.run, whose in-process memo would serve every round after
   the first without simulating. *)
let fleet_smoke = 768

let fleet_default = 16

(* One domain.  On a 2-vCPU VM, rounds on two domains spread 9-12%
   from run to run against 4-5% on one, because the speed probe runs on
   one vCPU and cannot follow the other. *)
let fleet_jobs = 1

(* The kernels are fixed (generator seeds from 0) and --seed orders the
   manifest.  A fuzz spec's seed picks its kernel and its inputs
   together, and a seed-drawn set of a few hundred kernels moves round
   time by 20% from draw to draw. *)
let fleet_specs ~seed : Batch.spec list =
  let fuzz ~smoke s =
    Batch.Fuzz
      {
        fz_seed = s;
        fz_block_size = 64;
        fz_smoke = smoke;
        fz_features = "all";
        fz_inject = None;
      }
  in
  let specs =
    Array.of_list
      (List.init fleet_smoke (fuzz ~smoke:true)
      @ List.init fleet_default (fuzz ~smoke:false))
  in
  let rng = Random.State.make [| seed |] in
  for i = Array.length specs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = specs.(i) in
    specs.(i) <- specs.(j);
    specs.(j) <- t
  done;
  Array.to_list specs

let rec remove_tree (path : string) : unit =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(** Temporary files, inside the working directory. *)
let temp_root = ".ledger"

let fresh_dir =
  let k = ref 0 in
  fun (tag : string) ->
    incr k;
    let d =
      Filename.concat temp_root
        (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !k)
    in
    remove_tree d;
    (try Sys.mkdir temp_root 0o755 with Sys_error _ -> ());
    Sys.mkdir d 0o755;
    d

let batch_histograms = [ "spec_ms"; "pass_ms"; "sim_ms"; "cache_lookup_ms" ]

let batch_value_units : (string * string) list =
  List.concat_map
    (fun h ->
      [
        (Printf.sprintf "fuzz.batch.%s.p50" h, "ms");
        (Printf.sprintf "fuzz.batch.%s.p99" h, "ms");
      ])
    batch_histograms
  @ [ ("fuzz.batch.other_ms", "ms"); ("harness.pool.busy_ratio", "ratio") ]

let batch_values (reg : MR.t) ~(wall_ms : float) : (string * float) list =
  let snap = MR.snapshot reg in
  let series name = MR.find_series snap ("darm_batch_" ^ name) in
  let sum name =
    match series name with Some s -> s.MR.s_value | None -> 0.
  in
  let pct name q =
    match series name with
    | Some s -> Option.value ~default:0. (MR.percentile s q)
    | None -> 0.
  in
  List.concat_map
    (fun h ->
      [
        (Printf.sprintf "fuzz.batch.%s.p50" h, pct h 0.5);
        (Printf.sprintf "fuzz.batch.%s.p99" h, pct h 0.99);
      ])
    batch_histograms
  @ [
      ( "fuzz.batch.other_ms",
        sum "spec_ms" -. sum "pass_ms" -. sum "sim_ms"
        -. sum "cache_lookup_ms" );
      ( "harness.pool.busy_ratio",
        sum "spec_ms" /. (wall_ms *. float_of_int fleet_jobs) );
    ]

(* the checks one batch result line must pass *)
let batch_outcome (line : string) : outcome list =
  let j = match Json.parse line with Ok j -> j | Error e -> failwith e in
  let field k = Json.member k j in
  let int k = match field k with Some (Json.Int i) -> i | _ -> 0 in
  expect (field "status" = Some (Json.Str "ok")) "status is not ok";
  expect
    (field "correct" = Some (Json.Bool true))
    "melded output differs from the baseline";
  expect
    (int "base_cycles" > 0 && int "opt_cycles" > 0)
    "a run retired zero cycles";
  L.count ~by:(int "rewrites") "batch.rewrites";
  let label = match field "name" with Some (Json.Str n) -> n | _ -> "" in
  [
    {
      label;
      model = "flat_stack";
      base_cycles = int "base_cycles";
      opt_cycles = int "opt_cycles";
    };
  ]

(* one Batch.run over [specs]; returns the output bytes and the round *)
let batch_round ~traced ~(cache : Cache.t) ~(out : string)
    (specs : Batch.spec list) : string * round =
  let registry = if traced then Some (MR.create ()) else None in
  let t0 = L.now_ns () in
  let s =
    L.span "fuzz.batch" (fun () ->
        Batch.run ~jobs:fleet_jobs ~cache ?registry ~out specs)
  in
  let wall_ms = float_of_int (L.now_ns () - t0) *. 1e-6 in
  let st = Cache.stats cache in
  L.count ~by:st.Cache.st_hits "harness.result_cache.hits";
  L.count ~by:st.Cache.st_misses "harness.result_cache.misses";
  L.count ~by:st.Cache.st_poison_evictions
    "harness.result_cache.poison_evictions";
  let text = Fsio.read_file out in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let label line =
    match Result.map (Json.member "name") (Json.parse line) with
    | Ok (Some (Json.Str n)) -> n
    | _ -> "unparsable result line"
  in
  let r = each lines ~label batch_outcome in
  let missing = List.length specs - s.Batch.bt_run in
  let failures =
    if missing = 0 then r.failures
    else Printf.sprintf "%d spec(s) not run" missing :: r.failures
  in
  let values =
    match registry with Some reg -> batch_values reg ~wall_ms | None -> []
  in
  (text, { r with kernels = List.length specs; failures; values })

(* the path Batch.run takes before its cache lookup: generate, print,
   digest *)
let replay_prepare (specs : Batch.spec list) () : unit =
  let c = Cache.create ~dir:temp_root () in
  List.iter
    (function
      | Batch.Fuzz f ->
          let cfg = if f.fz_smoke then Gen.smoke_cfg else Gen.default_cfg in
          let fn =
            L.span "fuzz.gen" (fun () -> Gen.generate ~cfg ~seed:f.fz_seed ())
          in
          let ir = L.span "ir.print" (fun () -> Printer.func_to_string fn) in
          let workload =
            Printf.sprintf "kind=fuzz|bs=%d|n=%d|input_seed=%d|warp=%d"
              f.fz_block_size cfg.Gen.array_size f.fz_seed
              Sim.default_config.Sim.warp_size
          in
          ignore
            (L.span "harness.result_cache.key" (fun () ->
                 Cache.key c [ ir; workload ]))
      | Batch.Registry _ -> ())
    specs

let fleet_setup ~seed (dir : string) : Batch.spec list =
  let manifest = Filename.concat dir "manifest.jsonl" in
  Fsio.write_atomic ~path:manifest
    (String.concat ""
       (List.map
          (fun s -> Json.to_string (Batch.spec_to_json s) ^ "\n")
          (fleet_specs ~seed)));
  match Batch.read_manifest manifest with
  | Ok specs -> specs
  | Error e -> failwith e

let fleet_cold : t =
  let setup ~seed =
    let dir = fresh_dir "fleet-cold" in
    let specs = fleet_setup ~seed dir in
    let k = ref 0 in
    {
      run_round =
        (fun ~traced ->
          incr k;
          let cache_dir = Filename.concat dir (Printf.sprintf "cache-%d" !k) in
          snd
            (batch_round ~traced
               ~cache:(Cache.create ~dir:cache_dir ())
               ~out:(Filename.concat dir "out.jsonl") specs));
      replay = replay_prepare specs;
      close = (fun () -> remove_tree dir);
    }
  in
  { name = "fleet-cold"; setup }

let fleet_warm : t =
  let setup ~seed =
    let dir = fresh_dir "fleet-warm" in
    let specs = fleet_setup ~seed dir in
    let cache_dir = Filename.concat dir "cache" in
    let cold, _ =
      batch_round ~traced:false
        ~cache:(Cache.create ~dir:cache_dir ())
        ~out:(Filename.concat dir "cold.jsonl") specs
    in
    {
      run_round =
        (fun ~traced ->
          let text, r =
            batch_round ~traced
              ~cache:(Cache.create ~dir:cache_dir ())
              ~out:(Filename.concat dir "out.jsonl") specs
          in
          if text = cold then r
          else
            {
              r with
              failures = "warm output differs from the cold output" :: r.failures;
            });
      replay = replay_prepare specs;
      close = (fun () -> remove_tree dir);
    }
  in
  { name = "fleet-warm"; setup }

let all : t list =
  [ paper_sim_on paper_points; compile_large; fleet_cold; fleet_warm ]

let find (name : string) : t option = List.find_opt (fun w -> w.name = name) all
