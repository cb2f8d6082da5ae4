(** Experiment runner: executes a kernel baseline-vs-transformed on the
    simulator and collects the paper's metrics. *)

module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module Sim = Darm_sim.Simulator
module Metrics = Darm_sim.Metrics
module Memory = Darm_sim.Memory
module Pass = Darm_core.Pass

type transform = {
  t_name : string;
  t_apply : Darm_ir.Ssa.func -> int;  (** returns #rewrites applied *)
}

let darm_transform ?(config = Pass.default_config) () : transform =
  {
    t_name = "DARM";
    t_apply =
      (fun f ->
        let stats = Pass.run ~config f in
        stats.Pass.melds_applied);
  }

let darm_default : transform = darm_transform ()

let branch_fusion_transform : transform =
  {
    t_name = "branch-fusion";
    t_apply =
      (fun f ->
        let stats = Pass.run_branch_fusion f in
        stats.Pass.melds_applied);
  }

let tail_merge_transform : transform =
  { t_name = "tail-merging"; t_apply = Darm_transforms.Tail_merge.run }

let identity_transform : transform =
  { t_name = "baseline"; t_apply = (fun _ -> 0) }

type result = {
  tag : string;
  block_size : int;
  n : int;  (** problem size the point ran at *)
  seed : int;  (** input seed; with [tag], [block_size] and [n] it
                   names the point exactly, so it can be re-run *)
  transform_name : string;
  rewrites : int;  (** melds / merges applied *)
  base : Metrics.t;
  opt : Metrics.t;
  correct : bool;  (** transformed output == baseline output == reference *)
  t_ms : float;
      (** time of the transform itself, on the monotonic clock
          ({!Darm_obs.Clock}) *)
}

let speedup (r : result) : float =
  if r.opt.Metrics.cycles = 0 then
    invalid_arg
      (Printf.sprintf
         "Experiment.speedup: %s %s bs=%d retired zero cycles — the run \
          never executed"
         r.tag r.transform_name r.block_size)
  else float_of_int r.base.Metrics.cycles /. float_of_int r.opt.Metrics.cycles

let all_correct (rs : result list) : bool =
  List.for_all (fun r -> r.correct) rs

let sim_config = Sim.default_config

let run_instance ?(config = sim_config) (inst : Kernel.instance) : Metrics.t =
  Sim.run ~config inst.Kernel.func ~args:inst.Kernel.args
    ~global:inst.Kernel.global inst.Kernel.launch

(* ------------------------------------------------------------------ *)
(* Memoization.

   Figures, tables and CSV exports all replay the same baseline
   simulations: every transform of a (kernel, block size, seed, n)
   point re-runs the untransformed kernel for its reference cycles and
   expected output.  Those runs are deterministic, so we compute each
   one once and share it.  Caching applies only under the default
   machine model ([sim = None]); a custom config bypasses the caches
   entirely.  Cached arrays are written once and only ever read
   afterwards, so sharing them across domains is safe; the tables are
   mutex-protected.  A concurrent miss on the same key computes the
   value twice and both writers store an identical entry — wasteful but
   harmless, and it keeps the baseline simulation outside the lock. *)

type point = { c_tag : string; c_bs : int; c_seed : int; c_n : int }

let base_cache :
    (point, Metrics.t * Memory.rv array * Memory.rv array) Hashtbl.t =
  Hashtbl.create 64

let base_mutex = Mutex.create ()

(* full results are additionally memoized for the stock transforms
   (identified physically, since a user-built transform with a custom
   Pass.config can produce different IR under the same name) *)
let canonical (t : transform) : bool =
  t == darm_default || t == branch_fusion_transform
  || t == tail_merge_transform || t == identity_transform

let result_cache : (point * string, result) Hashtbl.t = Hashtbl.create 64

let result_mutex = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let baseline ?sim (kernel : Kernel.t) ~seed ~block_size ~n :
    Metrics.t * Memory.rv array * Memory.rv array =
  let compute () =
    let inst = kernel.Kernel.make ~seed ~block_size ~n in
    let m = run_instance ?config:sim inst in
    (m, inst.Kernel.read_result (), inst.Kernel.reference ())
  in
  match sim with
  | Some _ -> compute ()
  | None -> (
      let key = { c_tag = kernel.Kernel.tag; c_bs = block_size; c_seed = seed;
                  c_n = n }
      in
      match
        with_lock base_mutex (fun () -> Hashtbl.find_opt base_cache key)
      with
      | Some v -> v
      | None ->
          let v = compute () in
          with_lock base_mutex (fun () ->
              match Hashtbl.find_opt base_cache key with
              | Some v' -> v'
              | None ->
                  Hashtbl.add base_cache key v;
                  v))

(** Run [kernel] at [block_size] with and without [transform]; check
    output equivalence against the host reference as a built-in sanity
    gate.  [sim] overrides the machine model (e.g. the warp width).

    [obs] wraps the whole experiment in an [experiment] span and routes
    both simulations into the buffer (baseline on pid 1, transformed on
    pid 2; override via [sim.obs_pid] conventions in
    doc/observability.md).  An observed run always recomputes — the
    caches would otherwise swallow the events of a repeated point. *)
let run ?(transform = darm_default) ?(seed = 2022) ?n ?sim ?obs ?mem_model
    ?reconvergence (kernel : Kernel.t) ~(block_size : int) : result =
  let n = Option.value ~default:kernel.Kernel.default_n n in
  (* a mem-model override folds into [sim], so a [Hier] run naturally
     bypasses the memoization caches below (their entries are
     default-model only) *)
  let sim =
    match (mem_model, sim) with
    | None, _ -> sim
    | Some Sim.Flat, None -> None (* the default model: keep cacheable *)
    | Some mm, _ ->
        Some { (Option.value ~default:sim_config sim) with Sim.mem_model = mm }
  in
  (* likewise for the reconvergence model: [Stack] is the default and
     stays cacheable, [Its] folds into [sim] and bypasses the caches *)
  let sim =
    match (reconvergence, sim) with
    | None, _ -> sim
    | Some Sim.Stack, None -> None
    | Some rc, _ ->
        Some
          { (Option.value ~default:sim_config sim) with Sim.reconvergence = rc }
  in
  let compute () =
    let span body =
      match obs with
      | None -> body ()
      | Some tr ->
          Darm_obs.Trace.with_span tr ~cat:"bench"
            ~args:
              [
                ("kernel", Darm_obs.Trace.Str kernel.Kernel.tag);
                ("block_size", Darm_obs.Trace.Int block_size);
                ("n", Darm_obs.Trace.Int n);
                ("seed", Darm_obs.Trace.Int seed);
                ("transform", Darm_obs.Trace.Str transform.t_name);
              ]
            "experiment" body
    in
    span @@ fun () ->
    let sim_with pid =
      match obs with
      | None -> sim
      | Some tr ->
          Some
            {
              (Option.value ~default:sim_config sim) with
              Sim.obs = Some tr;
              obs_pid = pid;
            }
    in
    let base, out_base, expected =
      match obs with
      | None -> baseline ?sim kernel ~seed ~block_size ~n
      | Some _ ->
          (* inline (uncached) baseline so its events land in the buffer *)
          let inst = kernel.Kernel.make ~seed ~block_size ~n in
          let m = run_instance ?config:(sim_with 1) inst in
          (m, inst.Kernel.read_result (), inst.Kernel.reference ())
    in
    let opt_inst = kernel.Kernel.make ~seed ~block_size ~n in
    let t0 = Darm_obs.Clock.now_s () in
    let rewrites = transform.t_apply opt_inst.Kernel.func in
    let t_ms = (Darm_obs.Clock.now_s () -. t0) *. 1000. in
    Darm_ir.Verify.run_exn opt_inst.Kernel.func;
    let opt = run_instance ?config:(sim_with 2) opt_inst in
    let out_opt = opt_inst.Kernel.read_result () in
    let correct =
      base.Metrics.cycles > 0
      && opt.Metrics.cycles > 0
      && Kernel.rv_array_equal out_base expected
      && Kernel.rv_array_equal out_opt out_base
    in
    {
      tag = kernel.Kernel.tag;
      block_size;
      n;
      seed;
      transform_name = transform.t_name;
      rewrites;
      base;
      opt;
      correct;
      t_ms;
    }
  in
  if sim <> None || obs <> None || not (canonical transform) then compute ()
  else
    let key =
      ( { c_tag = kernel.Kernel.tag; c_bs = block_size; c_seed = seed;
          c_n = n },
        transform.t_name )
    in
    match
      with_lock result_mutex (fun () -> Hashtbl.find_opt result_cache key)
    with
    | Some r -> r
    | None ->
        let r = compute () in
        with_lock result_mutex (fun () ->
            match Hashtbl.find_opt result_cache key with
            | Some r' -> r'
            | None ->
                Hashtbl.add result_cache key r;
                r)

(** Sweep a kernel over its block sizes. *)
let sweep ?jobs ?transform ?seed ?n ?mem_model ?reconvergence
    (kernel : Kernel.t) : result list =
  Parallel_sweep.map ?jobs
    (fun block_size ->
      run ?transform ?seed ?n ?mem_model ?reconvergence kernel ~block_size)
    kernel.Kernel.block_sizes

(** Sweep several kernels over their block sizes on the domain pool;
    results come back flattened in kernel-major, block-size-minor
    order regardless of the pool size. *)
let sweep_many ?jobs ?transform ?seed ?n ?mem_model ?reconvergence
    (kernels : Kernel.t list) : result list =
  let tasks =
    List.concat_map
      (fun k -> List.map (fun bs -> (k, bs)) k.Kernel.block_sizes)
      kernels
  in
  Parallel_sweep.map ?jobs
    (fun (k, bs) ->
      run ?transform ?seed ?n ?mem_model ?reconvergence k ~block_size:bs)
    tasks

(** Force a list of independent experiment thunks on the domain pool,
    preserving list order. *)
let run_many ?jobs (thunks : (unit -> result) list) : result list =
  Parallel_sweep.run_all ?jobs thunks

let geomean (xs : float list) : float =
  match xs with
  | [] -> 1.
  | _ ->
      exp (List.fold_left (fun a x -> a +. log x) 0. xs
           /. float_of_int (List.length xs))
