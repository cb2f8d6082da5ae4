(* The closed loop that measures one workload, and the metrics read from
   its rounds. *)

module L = Layers
module W = Workloads
module Trace = Darm_obs.Trace

type run = {
  setup_s : float list;  (** normalized seconds, one per set-up *)
  walls : float list;  (** untraced rounds, normalized seconds *)
  traced_walls : float list;
  raw_walls : float list;  (** untraced rounds on the plain clock *)
  rounds : W.round list;  (** untraced rounds, in run order *)
  traced_rounds : W.round list;
  gate_failures : string list;
  gate_checks : int;
  counters : (string * int) list;  (** of the first round *)
  trace : Trace.t option;
  peak_rss_mb : float;
}

(* set-up runs at least 3 times, and up to 15 while under half a second
   in all: a set-up of a few milliseconds needs more samples for a
   steady median *)
let setup_min_reps = 3

let setup_max_reps = 15

let setup_budget_s = 0.5

(* VmHWM; 0 where /proc is missing *)
let peak_rss_mb () : float =
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb ->
               float_of_int kb /. 1024.))
    |> Option.value ~default:0.
  with Sys_error _ -> 0.

(* first difference between two rounds' deterministic records *)
let gate_diff (c0, o0) (c, o) : string option =
  if c = c0 && o = o0 then None
  else
    let keys = List.sort_uniq compare (List.map fst c0 @ List.map fst c) in
    let get l k = Option.value ~default:0 (List.assoc_opt k l) in
    match List.find_opt (fun k -> get c0 k <> get c k) keys with
    | Some "gpu_sim.calls" ->
        Some
          (Printf.sprintf
             "Simulator.run calls differ between rounds: %d vs %d"
             (get c0 "gpu_sim.calls") (get c "gpu_sim.calls"))
    | Some k ->
        Some
          (Printf.sprintf "counter %s differs between rounds: %d vs %d" k
             (get c0 k) (get c k))
    | None -> Some "simulated cycles differ between rounds"

(* [f ()] and its duration in normalized and in plain seconds *)
let timed (f : unit -> 'a) : 'a * float * float =
  let n0 = L.work_ns () and t0 = L.now_ns () in
  let v = f () in
  let n1 = L.work_ns () in
  (v, (n1 -. n0) *. 1e-9, L.seconds_since t0)

(** Set up several times, then run rounds in a closed loop until
    [seconds] have passed (at least one round).  With [trace], every
    untraced round is paired with a traced one of the same work; the
    untraced rounds alone give the end-to-end metrics.  Every round's
    counters and outcomes must equal the first round's. *)
let measure ~(seconds : float) ~(trace : bool) ~(seed : int) (w : W.t) : run =
  let setup_s = ref [] and inst = ref None in
  let setup_t0 = L.now_ns () in
  let reps () = List.length !setup_s in
  while
    reps () < setup_min_reps
    || (reps () < setup_max_reps && L.seconds_since setup_t0 < setup_budget_s)
  do
    Option.iter (fun (i : W.instance) -> i.W.close ()) !inst;
    let i, s, _ = timed (fun () -> w.W.setup ~seed) in
    setup_s := s :: !setup_s;
    inst := Some i
  done;
  ignore (L.take_counters ());
  let inst = Option.get !inst in
  Fun.protect ~finally:inst.W.close @@ fun () ->
  let buf = Trace.create () in
  let walls = ref [] and twalls = ref [] and raw_walls = ref [] in
  let rounds = ref [] and trounds = ref [] in
  let first = ref None and gates = ref [] and checks = ref 0 in
  let one ~traced =
    L.tracer := if traced then Some buf else None;
    let r, wall, raw = timed (fun () -> inst.W.run_round ~traced) in
    L.tracer := None;
    let record = (L.take_counters (), r.W.outcomes) in
    (match !first with
    | None -> first := Some record
    | Some r0 ->
        incr checks;
        Option.iter (fun g -> gates := g :: !gates) (gate_diff r0 record));
    if traced then begin
      L.tracer := Some buf;
      inst.W.replay ();
      L.tracer := None;
      twalls := wall :: !twalls;
      trounds := r :: !trounds
    end
    else begin
      walls := wall :: !walls;
      raw_walls := raw :: !raw_walls;
      rounds := r :: !rounds
    end
  in
  (* a traced run alternates which of a pair goes first, and makes at
     least two pairs, so the first round's warm-up (heap growth, cold
     files) does not land on one side of the overhead ratio *)
  let t0 = L.now_ns () in
  let pairs = ref 0 in
  while
    !rounds = [] || L.seconds_since t0 < seconds || (trace && !pairs < 2)
  do
    if not trace then one ~traced:false
    else if !pairs mod 2 = 0 then (
      one ~traced:false;
      one ~traced:true)
    else (
      one ~traced:true;
      one ~traced:false);
    incr pairs
  done;
  {
    setup_s = List.rev !setup_s;
    walls = List.rev !walls;
    traced_walls = List.rev !twalls;
    raw_walls = List.rev !raw_walls;
    rounds = List.rev !rounds;
    traced_rounds = List.rev !trounds;
    gate_failures = List.rev !gates;
    gate_checks = !checks;
    counters = (match !first with Some (c, _) -> c | None -> []);
    trace = (if trace then Some buf else None);
    peak_rss_mb = peak_rss_mb ();
  }

let failures (r : run) : string list =
  List.concat_map (fun rd -> rd.W.failures) (r.rounds @ r.traced_rounds)
  @ r.gate_failures

let attempted (r : run) : int =
  List.fold_left (fun a rd -> a + rd.W.kernels) 0 (r.rounds @ r.traced_rounds)
  + r.gate_checks

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let geomean (xs : float list) : float =
  match xs with
  | [] -> 0.
  | _ ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b

let speedup_gm (r : run) (model : string) : float =
  match r.rounds with
  | [] -> 0.
  | rd :: _ ->
      geomean
        (List.filter_map
           (fun (o : W.outcome) ->
             if o.W.model = model then
               Some (float_of_int o.W.base_cycles /. float_of_int o.W.opt_cycles)
             else None)
           rd.W.outcomes)

(** Every end-to-end metric: name, unit and how a run gives it, in
    BENCHMARK.json order. *)
let end_to_end : (string * string * (run -> float)) list =
  let kernels_per_s r =
    match r.rounds with
    | rd :: _ -> ratio (float_of_int rd.W.kernels) (median r.walls)
    | [] -> 0.
  in
  [
    ("setup_s", "s", fun r -> median r.setup_s);
    ("wall_s", "s", fun r -> median r.walls);
    ("kernels_per_s", "1/s", kernels_per_s);
    ("speedup_gm.flat_stack", "x", fun r -> speedup_gm r "flat_stack");
  ]

(* what the per-layer metrics read: the traced rounds' layers *)
type view = {
  run : run;
  layers : (string, L.layer) Hashtbl.t;
  traced : float;  (** number of traced rounds *)
}

let busy name v =
  match Hashtbl.find_opt v.layers name with
  | Some l -> float_of_int l.L.self_us /. 1000. /. v.traced
  | None -> 0.

let calls name v =
  match Hashtbl.find_opt v.layers name with
  | Some l -> float_of_int l.L.calls /. v.traced
  | None -> 0.

let durations_ms name v =
  match Hashtbl.find_opt v.layers name with
  | Some l -> List.rev_map (fun d -> float_of_int d /. 1000.) l.L.durations_us
  | None -> []

(* every round's counters equal the first's, or a gate failed *)
let counter name v =
  float_of_int (Option.value ~default:0 (List.assoc_opt name v.run.counters))

(* mean over the traced rounds of a value a round read itself *)
let value name v =
  match v.run.traced_rounds with
  | [] -> 0.
  | rs ->
      List.fold_left
        (fun a rd ->
          a +. Option.value ~default:0. (List.assoc_opt name rd.W.values))
        0. rs
      /. float_of_int (List.length rs)

(* Table II per point, (build + O3 + DARM) / (build + O3): every
   paper-sim point runs one O3 span and then one pass *)
let compile_ratio v =
  let o = durations_ms "transforms.o3" v and p = durations_ms "core.pass" v in
  if o = [] || List.length o <> List.length p then 0.
  else geomean (List.map2 (fun o p -> (o +. p) /. Float.max o 1e-3) o p)

let cache_hit_ratio v =
  let h = counter "harness.result_cache.hits" v in
  ratio h (h +. counter "harness.result_cache.misses" v)

let pass_ratio num den v =
  let n = counter ("core.pass." ^ num) v in
  ratio n (List.fold_left (fun a d -> a +. counter ("core.pass." ^ d) v) 0. den)

let sim_metrics model =
  let name k = Printf.sprintf "gpu_sim.%s.%s" model k in
  let busy_ms = busy ("gpu_sim." ^ model) in
  [
    (name "busy_ms", "ms", busy_ms);
    (name "warp_instrs", "count", counter (name "warp_instrs"));
    ( name "ns_per_instr",
      "ns",
      fun v -> ratio (busy_ms v *. 1e6) (counter (name "warp_instrs") v) );
    (name "cycles", "count", counter (name "cycles"));
    (name "lost_lane_cycles", "count", counter (name "lost_lane_cycles"));
    (name "divergent_branches", "count", counter (name "divergent_branches"));
  ]

(** Every per-layer metric: name, unit and how the traced rounds give
    it, per traced round, in BENCHMARK.json order. *)
let per_layer : (string * string * (view -> float)) list =
  [
    ("ir.parse.busy_ms", "ms", busy "ir.parse");
    ("ir.verify.calls", "count", calls "ir.verify");
    ("ir.verify.busy_ms", "ms", busy "ir.verify");
    ("ir.print.busy_ms", "ms", busy "ir.print");
    ("fuzz.gen.busy_ms", "ms", busy "fuzz.gen");
    ("harness.result_cache.key_ms", "ms", busy "harness.result_cache.key");
    ("harness.result_cache.hits", "count", counter "harness.result_cache.hits");
    ( "harness.result_cache.misses",
      "count",
      counter "harness.result_cache.misses" );
    ("harness.result_cache.hit_ratio", "ratio", cache_hit_ratio);
    ( "harness.result_cache.poison_evictions",
      "count",
      counter "harness.result_cache.poison_evictions" );
    ("checks.check_func.calls", "count", calls "checks.check_func");
    ("checks.check_func.busy_ms", "ms", busy "checks.check_func");
    ("checks.check_func.errors", "count", counter "checks.check_func.errors");
    ("core.pass.calls", "count", calls "core.pass");
    ("core.pass.busy_ms", "ms", busy "core.pass");
    ("core.pass.p50_ms", "ms", fun v -> median (durations_ms "core.pass" v));
    ( "core.pass.max_ms",
      "ms",
      fun v -> List.fold_left Float.max 0. (durations_ms "core.pass" v) );
  ]
  @ List.map
      (fun k -> ("core.pass." ^ k, "count", counter ("core.pass." ^ k)))
      [
        "iterations";
        "pairs_scored";
        "candidates_prefiltered";
        "melds_applied";
        "analysis_recomputes_avoided";
      ]
  @ [
      ( "core.pass.prefilter_skip_ratio",
        "ratio",
        pass_ratio "candidates_prefiltered"
          [ "candidates_prefiltered"; "pairs_scored" ] );
      ( "core.pass.meld_yield",
        "ratio",
        pass_ratio "melds_applied" [ "pairs_scored" ] );
      ("transforms.o3.busy_ms", "ms", busy "transforms.o3");
      ("core.compile_ratio", "x", compile_ratio);
      ("kernels.make.busy_ms", "ms", busy "kernels.make");
    ]
  @ List.concat_map sim_metrics (List.map fst W.models)
  @ [
      ( "gpu_sim.hier_stack.l1_hit_rate",
        "ratio",
        fun v ->
          ratio
            (counter "gpu_sim.hier_stack.l1_hits" v)
            (counter "gpu_sim.hier_stack.l1_accesses" v) );
    ]
  @ List.map
      (fun m -> ("speedup_gm." ^ m, "x", fun v -> speedup_gm v.run m))
      [ "hier_stack"; "flat_its"; "hier_its" ]
  @ List.map (fun (name, unit) -> (name, unit, value name)) W.batch_value_units
  @ [
      ( "obs.trace_overhead_ratio",
        "ratio",
        fun v -> ratio (median v.run.traced_walls) (median v.run.walls) );
      ("process.peak_rss_mb", "MB", fun v -> v.run.peak_rss_mb);
    ]

let view (r : run) : view =
  {
    run = r;
    layers =
      (match r.trace with Some t -> L.layers t | None -> Hashtbl.create 1);
    traced = float_of_int (max 1 (List.length r.traced_rounds));
  }
