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
  t_apply : ?obs:Darm_obs.Trace.t -> Darm_ir.Ssa.func -> int;
      (** returns #rewrites applied; [obs] receives the pass's spans and
          meld decisions *)
}

let pass_transform name (config : Pass.config) : transform =
  {
    t_name = name;
    t_apply =
      (fun ?obs f ->
        let config =
          match obs with None -> config | Some _ -> { config with Pass.obs }
        in
        (Pass.run ~config f).Pass.melds_applied);
  }

let darm_transform ?(config = Pass.default_config) () : transform =
  pass_transform "DARM" config

let darm_default : transform = darm_transform ()

let branch_fusion_transform : transform =
  pass_transform "branch-fusion" Pass.branch_fusion_config

let tail_merge_transform : transform =
  {
    t_name = "tail-merging";
    t_apply = (fun ?obs:_ f -> Darm_transforms.Tail_merge.run f);
  }

let identity_transform : transform =
  { t_name = "baseline"; t_apply = (fun ?obs:_ _ -> 0) }

let transform_of_name (name : string) : (transform, string) result =
  match name with
  | "darm" -> Ok darm_default
  | "branch-fusion" -> Ok branch_fusion_transform
  | "tail-merge" -> Ok tail_merge_transform
  | "none" -> Ok identity_transform
  | other ->
      Error
        (Printf.sprintf
           "unknown pass %S (darm|branch-fusion|tail-merge|none)" other)

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
   one once and share it.  Both tables are keyed on the point plus the
   whole simulator config, so every machine model (warp width, memory
   model, reconvergence model) is cached on its own.  Cached arrays are
   written once and only ever read afterwards, so sharing them across
   domains is safe; the tables are mutex-protected.  A concurrent miss
   on the same key computes the value twice and both writers store an
   identical entry — wasteful but harmless, and it keeps the simulation
   outside the lock. *)

type point = {
  p_tag : string;
  p_bs : int;
  p_seed : int;
  p_n : int;
  p_config : Sim.config;  (** never carries [obs] *)
}

type ('k, 'v) memo = { tbl : ('k, 'v) Hashtbl.t; lock : Mutex.t }

let memo () = { tbl = Hashtbl.create 64; lock = Mutex.create () }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let find_or_compute m key compute =
  match with_lock m.lock (fun () -> Hashtbl.find_opt m.tbl key) with
  | Some v -> v
  | None ->
      let v = compute () in
      with_lock m.lock (fun () ->
          match Hashtbl.find_opt m.tbl key with
          | Some v' -> v'
          | None ->
              Hashtbl.add m.tbl key v;
              v)

let baselines : (point, Metrics.t * Memory.rv array * Memory.rv array) memo =
  memo ()

(* full results are additionally memoized for the stock transforms
   (identified physically, since a user-built transform with a custom
   Pass.config can produce different IR under the same name) *)
let canonical (t : transform) : bool =
  t == darm_default || t == branch_fusion_transform
  || t == tail_merge_transform || t == identity_transform

let results : (point * string, result) memo = memo ()

(* An observed run always recomputes — the caches would otherwise
   swallow the events of a repeated point — and so does a run whose
   [sim] carries [obs] (a mutable buffer, which a structural key cannot
   hold). *)
let run ?(transform = darm_default) ?(seed = 2022) ?n ?(sim = sim_config) ?obs
    ?mem_model ?reconvergence (kernel : Kernel.t) ~(block_size : int) : result
    =
  let n = Option.value ~default:kernel.Kernel.default_n n in
  let config =
    {
      sim with
      Sim.mem_model = Option.value ~default:sim.Sim.mem_model mem_model;
      reconvergence = Option.value ~default:sim.Sim.reconvergence reconvergence;
    }
  in
  let cacheable = Option.is_none obs && Option.is_none config.Sim.obs in
  let point =
    { p_tag = kernel.Kernel.tag; p_bs = block_size; p_seed = seed; p_n = n;
      p_config = config }
  in
  let simulate config =
    let inst = kernel.Kernel.make ~seed ~block_size ~n in
    let m = run_instance ~config inst in
    (m, inst.Kernel.read_result (), inst.Kernel.reference ())
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
    let config_for pid =
      match obs with
      | None -> config
      | Some tr -> { config with Sim.obs = Some tr; obs_pid = pid }
    in
    let base, out_base, expected =
      if cacheable then
        find_or_compute baselines point (fun () -> simulate config)
      else simulate (config_for 1)
    in
    let opt_inst = kernel.Kernel.make ~seed ~block_size ~n in
    let t0 = Darm_obs.Clock.now_s () in
    let rewrites = transform.t_apply ?obs opt_inst.Kernel.func in
    let t_ms = (Darm_obs.Clock.now_s () -. t0) *. 1000. in
    Darm_ir.Verify.run_exn opt_inst.Kernel.func;
    let opt = run_instance ~config:(config_for 2) opt_inst in
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
  if cacheable && canonical transform then
    find_or_compute results (point, transform.t_name) compute
  else compute ()

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
