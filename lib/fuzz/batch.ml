(* Fleet-scale batch driver.  See batch.mli and doc/fleet.md. *)

open Darm_ir
module J = Darm_obs.Json
module Clock = Darm_obs.Clock
module MR = Darm_obs.Metrics_registry
module Fsio = Darm_obs.Fsio
module Cache = Darm_harness.Result_cache
module History = Darm_harness.History
module PS = Darm_harness.Parallel_sweep
module E = Darm_harness.Experiment
module Kernel = Darm_kernels.Kernel
module Registry = Darm_kernels.Registry
module Simulator = Darm_sim.Simulator
module Metrics = Darm_sim.Metrics
module Checker = Darm_checks.Checker
module Diag = Darm_checks.Diag
module Pass = Darm_core.Pass

(* ------------------------------------------------------------------ *)
(* Manifest specs                                                      *)

type spec =
  | Registry of {
      rs_tag : string;
      rs_block_size : int option;
      rs_n : int option;
      rs_seed : int;
    }
  | Fuzz of {
      fz_seed : int;
      fz_block_size : int;
      fz_smoke : bool;
      fz_features : string;
      fz_inject : string option;
    }

let spec_name = function
  | Registry r -> r.rs_tag
  | Fuzz f -> Printf.sprintf "fuzz_%d" f.fz_seed

let spec_kind = function Registry _ -> "registry" | Fuzz _ -> "fuzz"

let spec_to_json = function
  | Registry r ->
      J.Obj
        ([ ("kind", J.Str "registry"); ("kernel", J.Str r.rs_tag) ]
        @ (match r.rs_block_size with
          | None -> []
          | Some b -> [ ("block_size", J.Int b) ])
        @ (match r.rs_n with None -> [] | Some n -> [ ("n", J.Int n) ])
        @ [ ("seed", J.Int r.rs_seed) ])
  | Fuzz f ->
      J.Obj
        ([
           ("kind", J.Str "fuzz");
           ("seed", J.Int f.fz_seed);
           ("block_size", J.Int f.fz_block_size);
           ("profile", J.Str (if f.fz_smoke then "smoke" else "default"));
           ("features", J.Str f.fz_features);
         ]
        @
        match f.fz_inject with
        | None -> []
        | Some tag -> [ ("inject", J.Str tag) ])

let ( let* ) = Result.bind

(* an optional manifest field, [default] when absent *)
let with_default ~default r = Result.map (Option.value ~default) r

let positive k v =
  if v > 0 then Ok v
  else Error (Printf.sprintf "field %S must be positive, got %d" k v)

let spec_of_json (j : J.t) : (spec, string) result =
  match J.member "kind" j with
  | Some (J.Str "registry") ->
      let* tag = J.get_str j "kernel" in
      let size k =
        J.get_opt (fun j k -> Result.bind (J.get_int j k) (positive k)) j k
      in
      let* block_size = size "block_size" in
      let* n = size "n" in
      let* seed = with_default ~default:2022 (J.get_opt J.get_int j "seed") in
      Ok
        (Registry
           { rs_tag = tag; rs_block_size = block_size; rs_n = n;
             rs_seed = seed })
  | Some (J.Str "fuzz") ->
      let* seed = J.get_int j "seed" in
      let* block_size =
        with_default ~default:64 (J.get_opt J.get_int j "block_size")
      in
      let* profile =
        with_default ~default:"smoke" (J.get_str_opt j "profile")
      in
      let* smoke =
        match profile with
        | "smoke" -> Ok true
        | "default" -> Ok false
        | p -> Error (Printf.sprintf "unknown profile %S (smoke|default)" p)
      in
      let* features =
        with_default ~default:"all" (J.get_str_opt j "features")
      in
      let* cfg = Gen.cfg_of ~smoke ~features in
      let* inject =
        match J.get_str_opt j "inject" with
        | Ok (Some tag) when Mutate.of_tag tag = None ->
            Error
              (Printf.sprintf "unknown inject tag %S (%s)" tag
                 (String.concat "|" (List.map Mutate.tag Mutate.all)))
        | r -> r
      in
      let* block_size = Oracle.check_block_size cfg block_size in
      Ok
        (Fuzz
           { fz_seed = seed; fz_block_size = block_size; fz_smoke = smoke;
             fz_features = features; fz_inject = inject })
  | Some (J.Str other) ->
      Error (Printf.sprintf "unknown kind %S (registry|fuzz)" other)
  | _ -> Error "missing string field \"kind\""

let read_manifest (path : string) : (spec list, string) result =
  Result.bind (Fsio.read path) (J.parse_lines ~name:path spec_of_json)

let write_fuzz_manifest ~path ~count ?(seed_start = 0) ?(block_size = 64)
    ?(smoke = true) ?(features = "all") ?inject () : unit =
  let spec seed =
    Fuzz
      { fz_seed = seed; fz_block_size = block_size; fz_smoke = smoke;
        fz_features = features; fz_inject = inject }
  in
  (* the reader's checks, once: every line differs only in its seed *)
  (match spec_of_json (spec_to_json (spec seed_start)) with
  | Error e -> invalid_arg ("Batch.write_fuzz_manifest: " ^ e)
  | Ok _ -> ());
  let b = Buffer.create (count * 64) in
  for i = 0 to count - 1 do
    J.to_buffer b (spec_to_json (spec (seed_start + i)));
    Buffer.add_char b '\n'
  done;
  Fsio.write_atomic ~path (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Result payloads                                                     *)

(* the cache key must cover everything a payload depends on: any change
   to the pass configuration (or its signature's format) starts a fresh
   key space *)
let pass_sig : string = Pass.signature Pass.default_config

(* one result line, typed: computed specs build it, cache hits parse it
   back ([payload_of_json]) *)
type payload = {
  p_name : string;
  p_kind : string;
  p_block_size : int;
  p_n : int;
  p_status : string;  (** "ok", "check-failed" or "error" *)
  p_check_ids : string list;
  p_rewrites : int;
  p_base : int * int;  (** cycles, divergent branches *)
  p_opt : int * int;
  p_correct : bool;
  p_pass_ms : float;
  p_detail : string option;
}

let payload ~name ~kind ~block_size ~n ~status ?(check_ids = [])
    ?(rewrites = 0) ?(base = (0, 0)) ?(opt = (0, 0)) ?(correct = true)
    ?(pass_ms = 0.) ?detail () : payload =
  {
    p_name = name;
    p_kind = kind;
    p_block_size = block_size;
    p_n = n;
    p_status = status;
    p_check_ids = check_ids;
    p_rewrites = rewrites;
    p_base = base;
    p_opt = opt;
    p_correct = correct;
    p_pass_ms = pass_ms;
    p_detail = detail;
  }

let payload_line (p : payload) : string =
  let base_cycles, base_div = p.p_base and opt_cycles, opt_div = p.p_opt in
  J.to_string
    (J.Obj
       ([
          ("schema", J.Str Cache.schema);
          ("name", J.Str p.p_name);
          ("kind", J.Str p.p_kind);
          ("block_size", J.Int p.p_block_size);
          ("n", J.Int p.p_n);
          ("status", J.Str p.p_status);
          ("check_errors", J.Int (List.length p.p_check_ids));
          ("check_ids", J.List (List.map (fun s -> J.Str s) p.p_check_ids));
          ("rewrites", J.Int p.p_rewrites);
          ("base_cycles", J.Int base_cycles);
          ("opt_cycles", J.Int opt_cycles);
          ("divergent_branches_base", J.Int base_div);
          ("divergent_branches_opt", J.Int opt_div);
          ("correct", J.Bool p.p_correct);
          ("pass_ms", J.Float p.p_pass_ms);
        ]
       @
       match p.p_detail with None -> [] | Some d -> [ ("detail", J.Str d) ]))
  ^ "\n"

(* every field [payload_line] writes, with its type; the cache has
   already checked [schema] *)
let payload_of_json (j : J.t) : (payload, string) result =
  let int = J.get_int j in
  let* status = J.get_str j "status" in
  let* check_ids =
    J.get_list
      (function J.Str s -> Ok s | _ -> Error "non-string check id")
      j "check_ids"
  in
  let* check_errors = int "check_errors" in
  if not (List.mem status [ "ok"; "check-failed"; "error" ]) then
    Error (Printf.sprintf "unknown status %S" status)
  else if check_errors <> List.length check_ids then
    Error "check_errors disagrees with check_ids"
  else
    let* name = J.get_str j "name" in
    let* kind = J.get_str j "kind" in
    let* block_size = int "block_size" in
    let* n = int "n" in
    let* rewrites = int "rewrites" in
    let* base_cycles = int "base_cycles" in
    let* opt_cycles = int "opt_cycles" in
    let* base_div = int "divergent_branches_base" in
    let* opt_div = int "divergent_branches_opt" in
    let* correct = J.get_bool j "correct" in
    let* pass_ms = J.get_float j "pass_ms" in
    let* detail = J.get_str_opt j "detail" in
    Ok
      (payload ~name ~kind ~block_size ~n ~status ~check_ids ~rewrites
         ~base:(base_cycles, base_div) ~opt:(opt_cycles, opt_div) ~correct
         ~pass_ms ?detail ())

(* fuzz specs run at the simulator's default warp (64), stack model *)
let fuzz_warp = Simulator.default_config.Simulator.warp_size

let check_ids_of report =
  List.map (fun (d : Diag.t) -> d.Diag.id) (Checker.errors report)
  |> List.sort_uniq compare

(* compute functions return (payload, this run's simulation wall in
   ms) — the sim time never enters the payload (it would break the
   warm-replay byte-identity), only the live latency histograms *)
let compute_fuzz ~(name : string) (sb : Oracle.subject) (f0 : Ssa.func) :
    payload * float =
  let { Oracle.sb_n = n; sb_input_seed; sb_block_size = block_size; _ } = sb in
  let mk = payload ~name ~kind:"fuzz" ~block_size ~n in
  let report = Checker.check_func f0 in
  match check_ids_of report with
  | _ :: _ as ids ->
      (* checker-flagged kernels are never executed (the oracle's rule) *)
      (mk ~status:"check-failed" ~check_ids:ids ~correct:false (), 0.)
  | [] ->
      let exec f =
        Oracle.exec ~n ~input_seed:sb_input_seed ~block_size
          ~warp_size:fuzz_warp f
      in
      let ts0 = Clock.now_s () in
      let base_m, base_out = exec f0 in
      let sim0 = (Clock.now_s () -. ts0) *. 1000. in
      (* the checker, the printer and the simulator only read the IR,
         so the kernel they saw melds in place *)
      let t0 = Clock.now_s () in
      let rewrites, _ = E.darm_default.E.t_apply f0 in
      let pass_ms = (Clock.now_s () -. t0) *. 1000. in
      let ts1 = Clock.now_s () in
      let opt_m, opt_out = exec f0 in
      let sim_ms = sim0 +. ((Clock.now_s () -. ts1) *. 1000.) in
      let correct =
        Kernel.rv_array_equal base_out opt_out
        && base_m.Metrics.cycles > 0
        && opt_m.Metrics.cycles > 0
      in
      ( mk ~status:"ok" ~rewrites
          ~base:(base_m.Metrics.cycles, base_m.Metrics.divergent_branches)
          ~opt:(opt_m.Metrics.cycles, opt_m.Metrics.divergent_branches)
          ~correct ~pass_ms (),
        sim_ms )

let compute_registry ~(kernel : Kernel.t) ~(block_size : int) ~(n : int)
    ~(seed : int) (inst : Kernel.instance) : payload * float =
  let mk = payload ~name:kernel.Kernel.tag ~kind:"registry" ~block_size ~n in
  let report = Checker.check_func inst.Kernel.func in
  match check_ids_of report with
  | _ :: _ as ids ->
      (mk ~status:"check-failed" ~check_ids:ids ~correct:false (), 0.)
  | [] ->
      let t_all0 = Clock.now_s () in
      let r = E.run ~transform:E.darm_default ~seed ~n kernel ~block_size in
      let t_all = (Clock.now_s () -. t_all0) *. 1000. in
      (* the experiment times its own transform (t_ms); the remainder
         of its wall is dominated by the two simulations *)
      let sim_ms = Float.max 0. (t_all -. r.E.t_ms) in
      ( mk ~status:"ok" ~rewrites:r.E.rewrites
          ~base:(r.E.base.Metrics.cycles, r.E.base.Metrics.divergent_branches)
          ~opt:(r.E.opt.Metrics.cycles, r.E.opt.Metrics.divergent_branches)
          ~correct:r.E.correct ~pass_ms:r.E.t_ms (),
        sim_ms )

(* ------------------------------------------------------------------ *)
(* Per-spec processing                                                 *)

type outcome = {
  oc_line : string;  (** the payload's bytes, verbatim on a hit *)
  oc_payload : payload;
  oc_hit : bool;
  oc_sim_ms : float;
  oc_lookup_ms : float;
  oc_spec_ms : float;
  oc_key : string option;
  oc_worker : int;
  oc_seq : int;
}

(* (printed IR, workload signature, compute thunk) — everything the
   content-addressed key needs, plus the way to fill a miss *)
let prepare (spec : spec) : string * string * (unit -> payload * float) =
  match spec with
  | Fuzz f ->
      let cfg =
        match Gen.cfg_of ~smoke:f.fz_smoke ~features:f.fz_features with
        | Ok c -> c
        | Error e -> failwith e
      in
      let inject =
        Option.map
          (fun tag ->
            match Mutate.of_tag tag with
            | Some bug -> bug
            | None -> failwith (Printf.sprintf "unknown inject tag %s" tag))
          f.fz_inject
      in
      let sb =
        Oracle.subject_of_seed ~cfg ?inject ~block_size:f.fz_block_size
          ~seed:f.fz_seed ()
      in
      let tag = Option.value f.fz_inject ~default:"" in
      let f0 =
        try sb.Oracle.sb_fresh ()
        with Failure e when String.starts_with ~prefix:"inject: " e ->
          (* a spec's name does not carry its bug, so the error does *)
          failwith ("inject " ^ tag ^ String.sub e 6 (String.length e - 6))
      in
      ( Printer.func_to_string f0,
        Printf.sprintf "kind=fuzz|bs=%d|n=%d|input_seed=%d|warp=%d%s"
          f.fz_block_size cfg.Gen.array_size f.fz_seed fuzz_warp
          (if tag = "" then "" else "|inject=" ^ tag),
        fun () -> compute_fuzz ~name:(spec_name spec) sb f0 )
  | Registry r -> (
      match Registry.find_any r.rs_tag with
      | None -> failwith (Printf.sprintf "unknown kernel %s" r.rs_tag)
      | Some kernel ->
          let block_size =
            match (r.rs_block_size, kernel.Kernel.block_sizes) with
            | Some b, _ -> b
            | None, b :: _ -> b
            | None, [] -> 64
          in
          let n = Option.value r.rs_n ~default:kernel.Kernel.default_n in
          let inst =
            kernel.Kernel.make ~seed:r.rs_seed ~block_size ~n
          in
          let ir = Printer.func_to_string inst.Kernel.func in
          let workload =
            Printf.sprintf "kind=registry|tag=%s|bs=%d|n=%d|seed=%d|warp=%d"
              kernel.Kernel.tag block_size n r.rs_seed
              E.sim_config.Simulator.warp_size
          in
          ( ir,
            workload,
            fun () ->
              compute_registry ~kernel ~block_size ~n ~seed:r.rs_seed inst ))

let process ?(cache : Cache.t option) (spec : spec) : outcome =
  let t_spec0 = Clock.now_s () in
  let finish ~hit ~lookup_ms ~sim_ms ~key ?line payload =
    {
      oc_line = (match line with Some l -> l | None -> payload_line payload);
      oc_payload = payload;
      oc_hit = hit;
      oc_sim_ms = sim_ms;
      oc_lookup_ms = lookup_ms;
      oc_spec_ms = (Clock.now_s () -. t_spec0) *. 1000.;
      oc_key = key;
      oc_worker = 0;
      oc_seq = 0;
    }
  in
  let error_payload detail =
    payload ~name:(spec_name spec) ~kind:(spec_kind spec) ~block_size:0 ~n:0
      ~status:"error" ~correct:false ~detail ()
  in
  match prepare spec with
  | exception e ->
      finish ~hit:false ~lookup_ms:0. ~sim_ms:0. ~key:None
        (error_payload (Printexc.to_string e))
  | ir, workload, compute -> (
      let key =
        Option.map (fun c -> Cache.key c [ ir; pass_sig; workload ]) cache
      in
      let t_lookup0 = Clock.now_s () in
      let hit =
        match (cache, key) with
        | Some c, Some k -> Cache.find c ~key:k ~decode:payload_of_json
        | _ -> None
      in
      let lookup_ms =
        match cache with
        | None -> 0.
        | Some _ -> (Clock.now_s () -. t_lookup0) *. 1000.
      in
      match hit with
      | Some (line, p) -> finish ~hit:true ~lookup_ms ~sim_ms:0. ~key ~line p
      | None -> (
          match compute () with
          | exception e ->
              finish ~hit:false ~lookup_ms ~sim_ms:0. ~key
                (error_payload (Printexc.to_string e))
          | p, sim_ms ->
              let line = payload_line p in
              (* the cache is best-effort: an unwritable directory must
                 not fail a run whose results are already in hand *)
              (match (cache, key) with
              | Some c, Some k -> (
                  try Cache.store c ~key:k line with _ -> ())
              | _ -> ());
              finish ~hit:false ~lookup_ms ~sim_ms ~key ~line p))

(* ------------------------------------------------------------------ *)
(* The sharded driver                                                  *)

let chunk_size = 64

type summary = {
  bt_total : int;
  bt_run : int;
  bt_hits : int;
  bt_misses : int;
  bt_incorrect : int;
  bt_check_failed : int;
  bt_errors : int;
  bt_wall_s : float;
  bt_budget_exhausted : bool;
  bt_pass_ms_p99 : float option;
  bt_stalled : int;
}

let to_batch_stats (s : summary) : History.batch =
  {
    History.b_kernels = s.bt_run;
    b_hits = s.bt_hits;
    b_misses = s.bt_misses;
    b_incorrect = s.bt_incorrect;
    b_wall_s = s.bt_wall_s;
    b_pass_ms_p99 = s.bt_pass_ms_p99;
  }

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing                                                  *)

module T = Darm_obs.Trace
module Export = Darm_obs.Export
module Snapshot = Darm_obs.Snapshot
module Health = Darm_obs.Health

(* finer-grained than MR.default_buckets: cache lookups are tens of
   microseconds, pass runs single-digit milliseconds *)
let latency_buckets =
  [ 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.;
    250.; 500.; 1000.; 2500.; 5000.; 10000. ]

(* exact nearest-rank percentile over raw samples (the summary's p99;
   the registry histograms answer the same question approximately) *)
let exact_percentile (samples : float list) (q : float) : float option =
  match samples with
  | [] -> None
  | _ ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      Some a.(max 0 (min (n - 1) rank))

(* live run state shared between pool workers (under [lv_mutex]), the
   coordinator and the monitor domain *)
type live = {
  lv_reg : MR.t;
  lv_mutex : Mutex.t;
  lv_done : int Atomic.t;
  lv_total : int;
  lv_jobs : int;
  lv_t0 : float;
  lv_health : Health.t;
  lv_cache : Cache.t option;
  mutable lv_cache_synced : Cache.stats option;  (* last delta-synced *)
  lv_hb_synced : int array;  (* heartbeats already exported per worker *)
}

let with_reg (lv : live) (f : MR.t -> 'a) : 'a =
  Mutex.lock lv.lv_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock lv.lv_mutex) (fun () -> f lv.lv_reg)

let make_live ?registry ~jobs ~total ~t0 ~stall_deadline_s cache : live =
  let reg = match registry with Some r -> r | None -> MR.create () in
  let lv =
    {
      lv_reg = reg;
      lv_mutex = Mutex.create ();
      lv_done = Atomic.make 0;
      lv_total = total;
      lv_jobs = jobs;
      lv_t0 = t0;
      lv_health = Health.create ~workers:jobs ~deadline_s:stall_deadline_s;
      lv_cache = cache;
      lv_cache_synced = Option.map Cache.stats cache;
      lv_hb_synced = Array.make jobs 0;
    }
  in
  (* pre-register the counter/gauge families so the very first snapshot
     already shows them (at zero) to external observers *)
  with_reg lv (fun reg ->
      let count name help = MR.inc reg ~by:0. name; MR.help reg name help in
      count "darm_batch_kernels_total" "Manifest entries processed";
      count "darm_batch_cache_hits_total" "Result-cache hits";
      count "darm_batch_cache_misses_total" "Result-cache misses (computed)";
      count "darm_batch_incorrect_total"
        "Kernels whose melded output mismatched the baseline";
      count "darm_batch_check_failed_total"
        "Checker-rejected kernels (never simulated)";
      count "darm_batch_errors_total" "Crashed or invalid manifest entries";
      MR.set reg "darm_batch_total" (float_of_int total);
      MR.help reg "darm_batch_total" "Manifest entries in the run";
      MR.set reg "darm_batch_done" 0.;
      MR.help reg "darm_batch_done" "Entries completed so far";
      MR.set reg "darm_run_health" 1.;
      MR.help reg "darm_run_health"
        "1 - stalled_workers/workers (1 = all workers making progress)");
  lv

(* per-spec accounting, called by pool workers *)
let observe_outcome (lv : live) (o : outcome) : unit =
  Atomic.incr lv.lv_done;
  Health.beat lv.lv_health ~worker:o.oc_worker ~now:(Clock.now_s ());
  with_reg lv (fun reg ->
      MR.inc reg "darm_batch_kernels_total";
      if o.oc_hit then MR.inc reg "darm_batch_cache_hits_total"
      else MR.inc reg "darm_batch_cache_misses_total";
      let p = o.oc_payload in
      (match p.p_status with
      | "ok" -> if not p.p_correct then MR.inc reg "darm_batch_incorrect_total"
      | "check-failed" -> MR.inc reg "darm_batch_check_failed_total"
      | _ -> MR.inc reg "darm_batch_errors_total");
      if lv.lv_cache <> None then begin
        MR.observe reg ~buckets:latency_buckets "darm_batch_cache_lookup_ms"
          o.oc_lookup_ms;
        MR.help reg "darm_batch_cache_lookup_ms"
          "Result-cache lookup wall per spec (ms)"
      end;
      if (not o.oc_hit) && p.p_status = "ok" then begin
        MR.observe reg ~buckets:latency_buckets "darm_batch_pass_ms"
          p.p_pass_ms;
        MR.help reg "darm_batch_pass_ms"
          "Meld-pass wall per computed spec (ms)";
        MR.observe reg ~buckets:latency_buckets "darm_batch_sim_ms" o.oc_sim_ms;
        MR.help reg "darm_batch_sim_ms"
          "Simulation wall per computed spec (ms)"
      end;
      MR.observe reg ~buckets:latency_buckets "darm_batch_spec_ms" o.oc_spec_ms;
      MR.help reg "darm_batch_spec_ms" "End-to-end wall per spec (ms)")

(* refresh the derived gauges, worker states/heartbeats and cache
   deltas; called on the monitor cadence and once at run end *)
let update_gauges (lv : live) ~(now : float) : unit =
  with_reg lv (fun reg ->
      let d = Atomic.get lv.lv_done in
      let wall = now -. lv.lv_t0 in
      MR.set reg "darm_batch_done" (float_of_int d);
      MR.set reg "darm_batch_wall_seconds" wall;
      MR.help reg "darm_batch_wall_seconds" "Wall-clock of the batch run";
      MR.set reg "darm_batch_kernels_per_sec"
        (if wall > 0. then float_of_int d /. wall else 0.);
      MR.help reg "darm_batch_kernels_per_sec"
        "Batch throughput over the whole run";
      let hits =
        Option.value ~default:0. (MR.find reg "darm_batch_cache_hits_total")
      in
      MR.set reg "darm_batch_cache_hit_rate"
        (if d > 0 then hits /. float_of_int d else 0.);
      MR.help reg "darm_batch_cache_hit_rate"
        "Hits over processed entries, 0..1";
      MR.set reg "darm_run_health" (Health.health lv.lv_health);
      for w = 0 to lv.lv_jobs - 1 do
        let labels = [ ("worker", string_of_int w) ] in
        MR.set reg ~labels "darm_worker_state"
          (float_of_int
             (Health.state_code (Health.state lv.lv_health ~worker:w)));
        MR.help reg "darm_worker_state"
          "Pool worker state: 0 idle, 1 busy, 2 stalled";
        let beats = Health.beats lv.lv_health ~worker:w in
        let delta = beats - lv.lv_hb_synced.(w) in
        if delta > 0 then begin
          MR.inc reg ~labels ~by:(float_of_int delta)
            "darm_worker_heartbeats_total";
          MR.help reg "darm_worker_heartbeats_total"
            "Specs completed per pool worker";
          lv.lv_hb_synced.(w) <- beats
        end
      done;
      (match (lv.lv_cache, lv.lv_cache_synced) with
      | Some c, Some last ->
          let s = Cache.stats c in
          let delta name v =
            if v > 0 then MR.inc reg ~by:(float_of_int v) name
          in
          delta "darm_cache_hits_total" (s.Cache.st_hits - last.Cache.st_hits);
          MR.help reg "darm_cache_hits_total"
            "Result-cache lookups served from disk";
          delta "darm_cache_misses_total"
            (s.Cache.st_misses - last.Cache.st_misses);
          MR.help reg "darm_cache_misses_total"
            "Result-cache lookups that found no usable entry";
          delta "darm_cache_poison_evictions_total"
            (s.Cache.st_poison_evictions - last.Cache.st_poison_evictions);
          MR.help reg "darm_cache_poison_evictions_total"
            "Corrupt/wrong-schema entries evicted on lookup";
          lv.lv_cache_synced <- Some s
      | _ -> ());
      (* the p99 gauge mirrors the histogram so flat scrapers get it *)
      match MR.find_series (MR.snapshot reg) "darm_batch_pass_ms" with
      | Some s -> (
          match MR.percentile s 0.99 with
          | Some p ->
              MR.set reg "darm_batch_pass_ms_p99" p;
              MR.help reg "darm_batch_pass_ms_p99"
                "p99 of darm_batch_pass_ms, estimated from its buckets"
          | None -> ())
      | None -> ())

let write_snapshot (lv : live) ~(base : string) : unit =
  (* best-effort: a full disk must not kill the run it observes *)
  try Snapshot.write ~base (with_reg lv MR.snapshot) with _ -> ()

(* ------------------------------------------------------------------ *)
(* The run journal                                                     *)

(* the core events, which the coordinator emits on tid 0 in manifest
   and chunk order, then those of a worker's track: how many of these
   there are, and where, depends on the pool size and the wall clock *)
let journal_events =
  [
    "run_start"; "chunk_start"; "spec_start"; "cache_hit"; "cache_miss";
    "spec_finish"; "chunk_finish"; "run_finish"; "worker_start";
    "worker_finish"; "stalled";
  ]

let validate_journal (evs : T.event list) : (unit, string) result =
  let rec go i last = function
    | [] -> Ok ()
    | (ev : T.event) :: rest ->
        if not (List.mem ev.ev_name journal_events) then
          Error (Printf.sprintf "event %d: unknown event %S" i ev.ev_name)
        else if ev.ev_ts <= last then
          Error
            (Printf.sprintf "event %d: ts %d is not above the previous %d" i
               ev.ev_ts last)
        else go (i + 1) ev.ev_ts rest
  in
  go 1 (-1) evs

(* re-emitting on a fresh buffer renumbers ts from 0 *)
let canonical_journal (evs : T.event list) : T.t =
  let t = T.create () in
  List.iter
    (fun (ev : T.event) ->
      if ev.ev_tid = 0 then
        T.instant t ~cat:ev.ev_cat ~pid:ev.ev_pid ~args:ev.ev_args ev.ev_name)
    evs;
  t

let run ?jobs ?budget_s ?cache ?registry ?events ?snapshot
    ?(cadence_s = 1.0) ?(stall_deadline_s = 30.) ~(out : string)
    (specs : spec list) : summary =
  let t0 = Clock.now_s () in
  let total = List.length specs in
  let jobs_n =
    max 1 (match jobs with Some j -> j | None -> PS.default_jobs ())
  in
  let hits = ref 0 and misses = ref 0 and run_n = ref 0 in
  let incorrect = ref 0 and check_failed = ref 0 and errors = ref 0 in
  let cut = ref false in
  let pass_samples = ref [] in
  let lv = make_live ?registry ~jobs:jobs_n ~total ~t0 ~stall_deadline_s cache in
  (* the monitor domain emits [stalled] too: one lock over stamping and
     writing keeps ts order equal to line order *)
  let journal =
    Option.map
      (fun path ->
        let sink, close = Export.jsonl_sink ~path in
        (T.create ~sink (), Mutex.create (), close))
      events
  in
  let emit ?(tid = 0) ?rt name args =
    match journal with
    | Some (tr, lock, _) ->
        Mutex.protect lock (fun () ->
            T.instant tr ~cat:"batch" ~tid ~args ?rt name)
    | None -> ()
  in
  (* per-worker sequence counters: each slot is only ever touched by
     its worker inside a chunk, and chunk boundaries join all domains *)
  let seqs = Array.make jobs_n 0 in
  let work ~worker spec =
    let o = process ?cache spec in
    let seq = seqs.(worker) in
    seqs.(worker) <- seq + 1;
    let o = { o with oc_worker = worker; oc_seq = seq } in
    observe_outcome lv o;
    o
  in
  (* the monitor: watchdog checks, gauge refresh and snapshot writes on
     the cadence, off the critical path *)
  let stop = Atomic.make false in
  let monitor =
    if events = None && snapshot = None then None
    else
      Some
        (Domain.spawn (fun () ->
             let rec loop () =
               let now = Clock.now_s () in
               let newly = Health.check lv.lv_health ~now in
               List.iter
                 (fun w ->
                   emit ~tid:(1 + w) "stalled"
                     ~rt:[ ("wall_s", T.Float (now -. t0)) ]
                     [ ("worker", T.Int w) ])
                 newly;
               update_gauges lv ~now;
               (match snapshot with
               | Some base -> write_snapshot lv ~base
               | None -> ());
               if not (Atomic.get stop) then begin
                 let rec nap remaining =
                   if remaining > 0. && not (Atomic.get stop) then begin
                     Unix.sleepf (Float.min 0.05 remaining);
                     nap (remaining -. 0.05)
                   end
                 in
                 nap (Float.max 0.05 cadence_s);
                 loop ()
               end
             in
             loop ()))
  in
  let finish_telemetry () =
    Atomic.set stop true;
    Option.iter Domain.join monitor;
    update_gauges lv ~now:(Clock.now_s ());
    (match snapshot with Some base -> write_snapshot lv ~base | None -> ());
    Option.iter (fun (_, _, close) -> close ()) journal
  in
  emit "run_start"
    ~rt:[ ("jobs", T.Int jobs_n) ]
    [
      ("total", T.Int total);
      ("chunk_size", T.Int chunk_size);
      ("cache", T.Bool (cache <> None));
      ("payload_schema", T.Str Cache.schema);
    ];
  for w = 0 to jobs_n - 1 do
    emit ~tid:(1 + w) "worker_start" [ ("worker", T.Int w) ]
  done;
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 out
  in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      finish_telemetry ())
    (fun () ->
      cut :=
        Oracle.budgeted_chunks ?budget_s ~size:chunk_size specs
          (fun ci chunk ->
            let first = !run_n in
            emit "chunk_start"
              [
                ("chunk", T.Int ci);
                ("size", T.Int (List.length chunk));
                ("first", T.Int first);
              ];
            for w = 0 to jobs_n - 1 do
              Health.set_busy lv.lv_health ~worker:w
                ~now:(Clock.now_s ())
            done;
            let outs = PS.map_with ~jobs:jobs_n work chunk in
            for w = 0 to jobs_n - 1 do
              Health.set_idle lv.lv_health ~worker:w
            done;
            List.iteri
              (fun i (spec, o) ->
                let gi = first + i and p = o.oc_payload in
                output_string oc o.oc_line;
                if o.oc_hit then incr hits else incr misses;
                (match p.p_status with
                | "ok" ->
                    if not p.p_correct then incr incorrect;
                    if not o.oc_hit then
                      pass_samples := p.p_pass_ms :: !pass_samples
                | "check-failed" -> incr check_failed
                | _ -> incr errors);
                (* journal the spec lifecycle in manifest order: the
                   coordinator replays each chunk's outcomes after the
                   barrier, so core fields are deterministic and only
                   the rt envelope knows which worker served what *)
                emit "spec_start"
                  [
                    ("spec", T.Int gi);
                    ("name", T.Str (spec_name spec));
                    ("kind", T.Str (spec_kind spec));
                    ("chunk", T.Int ci);
                  ];
                (match (cache, o.oc_key) with
                | Some _, Some k ->
                    emit
                      (if o.oc_hit then "cache_hit" else "cache_miss")
                      ~rt:[ ("lookup_ms", T.Float o.oc_lookup_ms) ]
                      [ ("spec", T.Int gi); ("key", T.Str k) ]
                | _ -> ());
                emit "spec_finish"
                  ~rt:
                    [
                      ("worker", T.Int o.oc_worker);
                      ("seq", T.Int o.oc_seq);
                      ("ms", T.Float o.oc_spec_ms);
                      ("pass_ms", T.Float p.p_pass_ms);
                      ("sim_ms", T.Float o.oc_sim_ms);
                    ]
                  [
                    ("spec", T.Int gi);
                    ("status", T.Str p.p_status);
                    ("hit", T.Bool o.oc_hit);
                    ("correct", T.Bool p.p_correct);
                  ])
              (List.combine chunk outs);
            (* flush per chunk: a crash or budget cut leaves a valid
               JSONL prefix in manifest order *)
            flush oc;
            run_n := !run_n + List.length chunk;
            emit "chunk_finish"
              ~rt:[ ("wall_s", T.Float (Clock.now_s () -. t0)) ]
              [
                ("chunk", T.Int ci);
                ("done", T.Int !run_n);
                ("hits", T.Int !hits);
                ("misses", T.Int !misses);
                ("errors", T.Int !errors);
              ]);
      for w = 0 to jobs_n - 1 do
        emit ~tid:(1 + w) "worker_finish"
          [ ("worker", T.Int w) ]
          ~rt:[ ("beats", T.Int (Health.beats lv.lv_health ~worker:w)) ]
      done;
      let wall_s = Clock.now_s () -. t0 in
      emit "run_finish"
        ~rt:
          [
            ("wall_s", T.Float wall_s);
            ("stalled", T.Int (Health.stalled_total lv.lv_health));
          ]
        [
          ("total", T.Int total);
          ("run", T.Int !run_n);
          ("hits", T.Int !hits);
          ("misses", T.Int !misses);
          ("incorrect", T.Int !incorrect);
          ("check_failed", T.Int !check_failed);
          ("errors", T.Int !errors);
          ("budget_exhausted", T.Bool !cut);
        ]);
  {
    bt_total = total;
    bt_run = !run_n;
    bt_hits = !hits;
    bt_misses = !misses;
    bt_incorrect = !incorrect;
    bt_check_failed = !check_failed;
    bt_errors = !errors;
    bt_wall_s = Clock.now_s () -. t0;
    bt_budget_exhausted = !cut;
    bt_pass_ms_p99 = exact_percentile !pass_samples 0.99;
    bt_stalled = Health.stalled_total lv.lv_health;
  }

let summary_to_string (s : summary) : string =
  let b = to_batch_stats s in
  Printf.sprintf
    "batch: %d/%d kernel(s), %d hit(s) / %d miss(es), hit-rate %.1f%%, %.1f \
     kernels/s, %d incorrect, %d check-failed, %d error(s)%s"
    s.bt_run s.bt_total s.bt_hits s.bt_misses
    (History.batch_hit_rate b *. 100.)
    (History.batch_kernels_per_sec b)
    s.bt_incorrect s.bt_check_failed s.bt_errors
    (if s.bt_budget_exhausted then " [budget exhausted]" else "")
