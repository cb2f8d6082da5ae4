(* Append-only bench history (BENCH_history.jsonl) and the regression
   sentinel behind [darm_opt bench-diff].  See history.mli. *)

module J = Darm_obs.Json
module Metrics = Darm_sim.Metrics
module E = Experiment

let schema = "darm-bench-hist-v2"

(* previous version, still parsed for one version window (the
   version-bump policy in doc/schemas.md): v1 lines carry no
   mem_model fields, which default to "flat" on load *)
let schema_v1 = "darm-bench-hist-v1"

let default_path = "BENCH_history.jsonl"

type env = {
  ocaml_version : string;
  os_type : string;
  word_size : int;
  warp_size : int;
  jobs : int;
  mem_model : string;
      (** memory model(s) the run covered: "flat", "hier" or
          "flat+hier" — part of the v2 fingerprint *)
  reconvergence : string;
      (** reconvergence model(s) the run covered: "stack", "its" or
          "stack+its"; absent from older v2 lines, which load as
          "stack" *)
}

let current_env ?jobs () : env =
  {
    ocaml_version = Sys.ocaml_version;
    os_type = Sys.os_type;
    word_size = Sys.word_size;
    warp_size = E.sim_config.E.Sim.warp_size;
    jobs = (match jobs with Some j -> j | None -> Parallel_sweep.default_jobs ());
    mem_model = E.Sim.mem_model_name E.sim_config.E.Sim.mem_model;
    reconvergence = E.Sim.reconvergence_name E.sim_config.E.Sim.reconvergence;
  }

type entry = {
  e_kernel : string;
  e_block_size : int;
  e_transform : string;
  e_mem_model : string;  (** "flat" or "hier"; part of the point key *)
  e_reconvergence : string;
      (** "stack" or "its"; part of the point key, "stack" when absent
          from an older line *)
  e_rewrites : int;
  e_base_cycles : int;
  e_opt_cycles : int;
  e_alu_util_base : float option;
  e_alu_util_opt : float option;
  e_divergent_branches_base : int option;
  e_divergent_branches_opt : int option;
  e_pass_ms : float;
  e_correct : bool;
}

let entry_speedup (e : entry) : float =
  if e.e_opt_cycles = 0 then 0.
  else float_of_int e.e_base_cycles /. float_of_int e.e_opt_cycles

type batch = {
  b_kernels : int;
  b_hits : int;
  b_misses : int;
  b_incorrect : int;
  b_wall_s : float;
  b_pass_ms_p99 : float option;
}

let batch_hit_rate (b : batch) : float =
  let looked_up = b.b_hits + b.b_misses in
  if looked_up = 0 then 0.
  else float_of_int b.b_hits /. float_of_int looked_up

let batch_kernels_per_sec (b : batch) : float =
  if b.b_wall_s <= 0. then 0. else float_of_int b.b_kernels /. b.b_wall_s

type record = {
  r_time : float;
  r_env : env;
  r_wall_s : float option;
  r_entries : entry list;
  r_batch : batch option;
}

let of_batch ?jobs ~time (b : batch) : record =
  {
    r_time = time;
    r_env = current_env ?jobs ();
    r_wall_s = Some b.b_wall_s;
    r_entries = [];
    r_batch = Some b;
  }

let entries_of_results (results : E.result list) : entry list =
  List.map
    (fun (r : E.result) ->
      let m = r.E.machine in
      let warp_size = m.E.Sim.warp_size in
      {
        e_kernel = r.E.tag;
        e_block_size = r.E.block_size;
        e_transform = r.E.transform_name;
        e_mem_model = E.Sim.mem_model_name m.E.Sim.mem_model;
        e_reconvergence = E.Sim.reconvergence_name m.E.Sim.reconvergence;
        e_rewrites = r.E.rewrites;
        e_base_cycles = r.E.base.Metrics.cycles;
        e_opt_cycles = r.E.opt.Metrics.cycles;
        e_alu_util_base =
          Some (Metrics.alu_utilization r.E.base ~warp_size);
        e_alu_util_opt = Some (Metrics.alu_utilization r.E.opt ~warp_size);
        e_divergent_branches_base =
          Some r.E.base.Metrics.divergent_branches;
        e_divergent_branches_opt = Some r.E.opt.Metrics.divergent_branches;
        e_pass_ms = r.E.t_ms;
        e_correct = r.E.correct;
      })
    results

(* the models the entries cover, in the simulator's order, joined with
   "+" ("flat+hier"); the default model when there are none *)
let coverage names name_of entries =
  let covered n = List.exists (fun e -> name_of e = n) entries in
  match List.filter covered (List.map fst names) with
  | [] -> fst (List.hd names)
  | l -> String.concat "+" l

let of_results ?wall_s ?jobs ~time (results : E.result list) : record =
  let entries = entries_of_results results in
  {
    r_time = time;
    r_env =
      {
        (current_env ?jobs ()) with
        mem_model = coverage E.Sim.mem_models (fun e -> e.e_mem_model) entries;
        reconvergence =
          coverage E.Sim.reconvergences (fun e -> e.e_reconvergence) entries;
      };
    r_wall_s = wall_s;
    r_batch = None;
    r_entries = entries;
  }

(* ------------------------------------------------------------------ *)
(* Serialization *)

let env_to_json (e : env) : J.t =
  J.Obj
    [
      ("ocaml_version", J.Str e.ocaml_version);
      ("os_type", J.Str e.os_type);
      ("word_size", J.Int e.word_size);
      ("warp_size", J.Int e.warp_size);
      ("jobs", J.Int e.jobs);
      ("mem_model", J.Str e.mem_model);
      ("reconvergence", J.Str e.reconvergence);
    ]

(* an absent optional field is left out, not written as null *)
let opt_field k to_json = function None -> [] | Some v -> [ (k, to_json v) ]

let entry_to_json (e : entry) : J.t =
  J.Obj
    ([
       ("kernel", J.Str e.e_kernel);
       ("block_size", J.Int e.e_block_size);
       ("transform", J.Str e.e_transform);
       ("mem_model", J.Str e.e_mem_model);
       ("reconvergence", J.Str e.e_reconvergence);
       ("rewrites", J.Int e.e_rewrites);
       ("base_cycles", J.Int e.e_base_cycles);
       ("opt_cycles", J.Int e.e_opt_cycles);
     ]
    @ opt_field "alu_util_base" (fun f -> J.Float f) e.e_alu_util_base
    @ opt_field "alu_util_opt" (fun f -> J.Float f) e.e_alu_util_opt
    @ opt_field "divergent_branches_base" (fun i -> J.Int i)
        e.e_divergent_branches_base
    @ opt_field "divergent_branches_opt" (fun i -> J.Int i)
        e.e_divergent_branches_opt
    @ [
        ("pass_ms", J.Float e.e_pass_ms);
        ("correct", J.Bool e.e_correct);
      ])

let batch_to_json (b : batch) : J.t =
  J.Obj
    ([
       ("kernels", J.Int b.b_kernels);
       ("cache_hits", J.Int b.b_hits);
       ("cache_misses", J.Int b.b_misses);
       ("incorrect", J.Int b.b_incorrect);
       ("wall_s", J.Float b.b_wall_s);
     ]
    @ opt_field "pass_ms_p99" (fun p -> J.Float p) b.b_pass_ms_p99
    @ [
        (* derived, for greppability; the loader recomputes them *)
        ("hit_rate", J.Float (batch_hit_rate b));
        ("kernels_per_sec", J.Float (batch_kernels_per_sec b));
      ])

let record_to_json (r : record) : J.t =
  J.Obj
    ([
       ("schema", J.Str schema);
       ("time", J.Float r.r_time);
       ("env", env_to_json r.r_env);
     ]
    @ (match r.r_wall_s with
      | None -> []
      | Some s -> [ ("wall_s", J.Float s) ])
    @ (match r.r_batch with
      | None -> []
      | Some b -> [ ("batch", batch_to_json b) ])
    @ [ ("results", J.List (List.map entry_to_json r.r_entries)) ])

(* a string field absent from pre-v2 lines *)
let get_str_default j k ~default = Result.value (J.get_str j k) ~default

let ( let* ) = Result.bind

let env_of_json (j : J.t) : (env, string) result =
  let* ocaml_version = J.get_str j "ocaml_version" in
  let* os_type = J.get_str j "os_type" in
  let* word_size = J.get_int j "word_size" in
  let* warp_size = J.get_int j "warp_size" in
  let* jobs = J.get_int j "jobs" in
  let mem_model = get_str_default j "mem_model" ~default:"flat" in
  let reconvergence = get_str_default j "reconvergence" ~default:"stack" in
  Ok
    {
      ocaml_version;
      os_type;
      word_size;
      warp_size;
      jobs;
      mem_model;
      reconvergence;
    }

let entry_of_json (j : J.t) : (entry, string) result =
  let* e_kernel = J.get_str j "kernel" in
  let* e_block_size = J.get_int j "block_size" in
  let* e_transform = J.get_str j "transform" in
  let e_mem_model = get_str_default j "mem_model" ~default:"flat" in
  let e_reconvergence = get_str_default j "reconvergence" ~default:"stack" in
  let* e_rewrites = J.get_int j "rewrites" in
  let* e_base_cycles = J.get_int j "base_cycles" in
  let* e_opt_cycles = J.get_int j "opt_cycles" in
  let* e_alu_util_base = J.get_opt J.get_float j "alu_util_base" in
  let* e_alu_util_opt = J.get_opt J.get_float j "alu_util_opt" in
  let* e_divergent_branches_base =
    J.get_opt J.get_int j "divergent_branches_base"
  in
  let* e_divergent_branches_opt =
    J.get_opt J.get_int j "divergent_branches_opt"
  in
  let* e_pass_ms = J.get_float j "pass_ms" in
  let* e_correct = J.get_bool j "correct" in
  Ok
    {
      e_kernel;
      e_block_size;
      e_transform;
      e_mem_model;
      e_reconvergence;
      e_rewrites;
      e_base_cycles;
      e_opt_cycles;
      e_alu_util_base;
      e_alu_util_opt;
      e_divergent_branches_base;
      e_divergent_branches_opt;
      e_pass_ms;
      e_correct;
    }

let batch_of_json (j : J.t) : (batch, string) result =
  let* b_kernels = J.get_int j "kernels" in
  let* b_hits = J.get_int j "cache_hits" in
  let* b_misses = J.get_int j "cache_misses" in
  let* b_incorrect = J.get_int j "incorrect" in
  let* b_wall_s = J.get_float j "wall_s" in
  let* b_pass_ms_p99 = J.get_opt J.get_float j "pass_ms_p99" in
  Ok { b_kernels; b_hits; b_misses; b_incorrect; b_wall_s; b_pass_ms_p99 }

let record_of_json (j : J.t) : (record, string) result =
  let* s = J.get_str j "schema" in
  if s <> schema && s <> schema_v1 then
    Error (Printf.sprintf "schema mismatch: expected %S, got %S" schema s)
  else
    let* r_time = J.get_float j "time" in
    let* env_j =
      match J.member "env" j with
      | Some e -> Ok e
      | None -> Error "missing object field \"env\""
    in
    let* r_env = env_of_json env_j in
    let r_wall_s = Result.to_option (J.get_float j "wall_s") in
    let* r_batch =
      match J.member "batch" j with
      | None -> Ok None
      | Some bj -> Result.map Option.some (batch_of_json bj)
    in
    let* r_entries = J.get_list entry_of_json j "results" in
    Ok { r_time; r_env; r_wall_s; r_batch; r_entries }

let append ?(path = default_path) (r : record) : unit =
  (* Open_binary: the history's determinism contract is cmp-able bytes *)
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string (record_to_json r) ^ "\n"))

let load ?(path = default_path) () : (record list, string) result =
  let* text = Darm_obs.Fsio.read path in
  J.parse_lines ~name:path record_of_json text

(* ------------------------------------------------------------------ *)
(* Regression sentinel *)

type thresholds = {
  max_geomean_drop : float;
  max_cycle_growth : float;
  pass_ms_factor : float;
  pass_ms_slack : float;
  min_kps_ratio : float;
}

let default_thresholds =
  {
    max_geomean_drop = 0.02;
    max_cycle_growth = 0.02;
    pass_ms_factor = 10.;
    pass_ms_slack = 100.;
    min_kps_ratio = 0.1;
  }

type diff = {
  d_regressions : string list;
  d_notes : string list;
  d_geomean_base : float;
  d_geomean_cand : float;
  d_compared : int;
}

let key (e : entry) =
  (e.e_kernel, e.e_block_size, e.e_transform, e.e_mem_model, e.e_reconvergence)

let key_str (k, bs, t, mm, rc) =
  Printf.sprintf "%s/bs%d/%s/%s/%s" k bs t mm rc

let diff ?(thresholds = default_thresholds) ~(baseline : record)
    (candidate : record) : diff =
  let regressions = ref [] and notes = ref [] in
  let regress fmt = Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let be = baseline.r_env and ce = candidate.r_env in
  if be.warp_size <> ce.warp_size then
    note "env: warp_size changed %d -> %d (cycle counts not comparable)"
      be.warp_size ce.warp_size;
  if be.ocaml_version <> ce.ocaml_version then
    note "env: ocaml_version changed %s -> %s" be.ocaml_version
      ce.ocaml_version;
  if be.word_size <> ce.word_size then
    note "env: word_size changed %d -> %d" be.word_size ce.word_size;
  if be.mem_model <> ce.mem_model then
    note "env: mem_model coverage changed %s -> %s" be.mem_model ce.mem_model;
  if be.reconvergence <> ce.reconvergence then
    note "env: reconvergence coverage changed %s -> %s" be.reconvergence
      ce.reconvergence;
  let base_tbl = Hashtbl.create 32 in
  List.iter (fun e -> Hashtbl.replace base_tbl (key e) e) baseline.r_entries;
  let compared = ref [] in
  List.iter
    (fun (c : entry) ->
      match Hashtbl.find_opt base_tbl (key c) with
      | None -> note "new point %s (no baseline)" (key_str (key c))
      | Some b ->
          Hashtbl.remove base_tbl (key c);
          compared := (b, c) :: !compared)
    candidate.r_entries;
  Hashtbl.iter
    (fun k _ -> note "point %s disappeared from the candidate" (key_str k))
    base_tbl;
  let compared = List.rev !compared in
  (* per-point gates, in candidate order for deterministic output *)
  List.iter
    (fun ((b : entry), (c : entry)) ->
      let ks = key_str (key c) in
      if (not c.e_correct) && b.e_correct then
        regress "%s: correctness flipped to INCORRECT" ks;
      if c.e_opt_cycles = 0 then
        regress "%s: optimized run retired zero cycles" ks
      else begin
        let growth =
          float_of_int (c.e_opt_cycles - b.e_opt_cycles)
          /. float_of_int (max 1 b.e_opt_cycles)
        in
        if growth > thresholds.max_cycle_growth then
          regress "%s: opt_cycles grew %d -> %d (+%.1f%%, threshold %.1f%%)"
            ks b.e_opt_cycles c.e_opt_cycles (growth *. 100.)
            (thresholds.max_cycle_growth *. 100.)
        else if growth < -.thresholds.max_cycle_growth then
          note "%s: opt_cycles improved %d -> %d (%.1f%%)" ks b.e_opt_cycles
            c.e_opt_cycles (growth *. 100.)
      end;
      let limit =
        (thresholds.pass_ms_factor *. b.e_pass_ms) +. thresholds.pass_ms_slack
      in
      if c.e_pass_ms > limit then
        regress "%s: pass_ms %.1f -> %.1f exceeds %.1f (%.0fx + %.0fms slack)"
          ks b.e_pass_ms c.e_pass_ms limit thresholds.pass_ms_factor
          thresholds.pass_ms_slack)
    compared;
  (* geomean gate over the compared intersection, recomputed from
     cycles so a tampered speedup field cannot mask a regression *)
  let geo f =
    Experiment.geomean
      (List.filter_map
         (fun (b, c) ->
           let s = entry_speedup (f (b, c)) in
           if s > 0. then Some s else None)
         compared)
  in
  let g_base = geo fst and g_cand = geo snd in
  if compared <> [] && g_base > 0. then begin
    let drop = (g_base -. g_cand) /. g_base in
    if drop > thresholds.max_geomean_drop then
      regress "geomean speedup dropped %.3fx -> %.3fx (-%.1f%%, threshold %.1f%%)"
        g_base g_cand (drop *. 100.)
        (thresholds.max_geomean_drop *. 100.)
    else if drop < -.thresholds.max_geomean_drop then
      note "geomean speedup improved %.3fx -> %.3fx" g_base g_cand
  end;
  (* batch throughput gate: wall-clock and machine-dependent, so the
     ratio threshold is generous; hit-rate changes are informational *)
  (match (baseline.r_batch, candidate.r_batch) with
  | Some bb, Some cb ->
      let kb = batch_kernels_per_sec bb and kc = batch_kernels_per_sec cb in
      if kb > 0. && kc > 0. && kc < thresholds.min_kps_ratio *. kb then
        regress
          "batch throughput dropped %.1f -> %.1f kernels/sec (below %.0f%% \
           of baseline)"
          kb kc
          (thresholds.min_kps_ratio *. 100.)
      else if kb > 0. && kc > kb then
        note "batch throughput improved %.1f -> %.1f kernels/sec" kb kc;
      note "batch cache hit-rate %.1f%% -> %.1f%%"
        (batch_hit_rate bb *. 100.)
        (batch_hit_rate cb *. 100.);
      if cb.b_incorrect > bb.b_incorrect then
        regress "batch incorrect kernels grew %d -> %d" bb.b_incorrect
          cb.b_incorrect;
      (* tail-latency gate: the p99 of the candidate's computed
         pass_ms, under the same factor+slack envelope as per-point
         pass_ms.  Only when both records carry it — a fully-warm run
         computes nothing and legitimately has no p99. *)
      (match (bb.b_pass_ms_p99, cb.b_pass_ms_p99) with
      | Some pb, Some pc ->
          let limit =
            (thresholds.pass_ms_factor *. pb) +. thresholds.pass_ms_slack
          in
          if pc > limit then
            regress
              "batch p99 pass_ms %.1f -> %.1f exceeds %.1f (%.0fx + %.0fms \
               slack)"
              pb pc limit thresholds.pass_ms_factor thresholds.pass_ms_slack
      | _ -> ())
  | _ -> ());
  (* two entry-less batch records legitimately share no experiment
     points: they compare on throughput above instead *)
  let batch_only =
    baseline.r_entries = [] && candidate.r_entries = []
    && baseline.r_batch <> None
    && candidate.r_batch <> None
  in
  if compared = [] && not batch_only then
    regress "no common points between the two records";
  {
    d_regressions = List.rev !regressions;
    d_notes = List.rev !notes;
    d_geomean_base = g_base;
    d_geomean_cand = g_cand;
    d_compared = List.length compared;
  }

let diff_ok (d : diff) : bool = d.d_regressions = []

let diff_to_text (d : diff) : string =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "bench-diff: %d point(s) compared, geomean %.3fx -> %.3fx" d.d_compared
    d.d_geomean_base d.d_geomean_cand;
  List.iter (fun n -> line "  note: %s" n) d.d_notes;
  if d.d_regressions = [] then line "  OK: no regression"
  else
    List.iter (fun r -> line "  REGRESSION: %s" r) d.d_regressions;
  Buffer.contents b
