(** Per-meld divergence attribution — the [darm_opt report] pipeline.
    See report.mli for the attribution model and the exact-sum
    contract. *)

module Kernel = Darm_kernels.Kernel
module Metrics = Darm_sim.Metrics
module Pass = Darm_core.Pass
module Sim = Darm_sim.Simulator
module J = Darm_obs.Json

let schema = "darm-report-v2"

type branch_join = {
  bj_id : string;
  bj_base : Metrics.branch_stat option;
  bj_opt : Metrics.branch_stat option;
  bj_meld : int option;
}

type meld_row = {
  mr_meld : Pass.meld_record;
  mr_claimed : string list;
  mr_base_divergences : int;
  mr_opt_divergences : int;
  mr_base_cycles : int;
  mr_opt_cycles : int;
  mr_base_lost : int;
  mr_opt_lost : int;
}

let meld_saved (r : meld_row) : int = r.mr_base_cycles - r.mr_opt_cycles

type mem_join = {
  mj_id : string;
  mj_base : Metrics.mem_site_stat option;
  mj_opt : Metrics.mem_site_stat option;
}

type t = {
  rp_kernel : string;
  rp_block_size : int;
  rp_seed : int;
  rp_n : int;
  rp_correct : bool;
  rp_rewrites : int;
  rp_mem_model : string;  (** {!Sim.mem_model_name} *)
  rp_reconvergence : string;  (** {!Sim.reconvergence_name} *)
  rp_base : Metrics.t;
  rp_opt : Metrics.t;
  rp_melds : meld_row list;
  rp_branches : branch_join list;
  rp_mem_sites : mem_join list;  (** sorted by site id *)
}

let delta (t : t) : int = t.rp_base.Metrics.cycles - t.rp_opt.Metrics.cycles

let residual (t : t) : int =
  delta t - List.fold_left (fun a r -> a + meld_saved r) 0 t.rp_melds

let no_divergence (t : t) : bool =
  t.rp_base.Metrics.divergent_branches = 0 && t.rp_melds = []

(* memory attribution: per-site issue-cycle deltas sum to the global
   memory-cycle delta by construction (the simulator attributes every
   memory issue to a site), and the non-memory residual closes the
   second identity against the total delta *)

let mem_site_saved (mj : mem_join) : int =
  let c = Option.fold ~none:0 ~some:(fun s -> s.Metrics.ms_cycles) in
  c mj.mj_base - c mj.mj_opt

let mem_delta (t : t) : int =
  t.rp_base.Metrics.mem_cycles - t.rp_opt.Metrics.mem_cycles

let mem_residual (t : t) : int = delta t - mem_delta t

let no_memory (t : t) : bool = t.rp_mem_sites = []

(* ------------------------------------------------------------------ *)
(* Assembly: claim branches to melds (first application wins), join
   the two runs' per-branch counters. *)

let build ?(mem_model = Sim.default_config.Sim.mem_model)
    ?(reconvergence = Sim.default_config.Sim.reconvergence) ~kernel
    ~block_size ~seed ~n ~correct ~rewrites ~(base : Metrics.t)
    ~(opt : Metrics.t)
    ~(melds : Pass.meld_record list) () : t =
  let stat_of m id = Hashtbl.find_opt m.Metrics.branches id in
  let claimed_by : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let meld_rows =
    List.map
      (fun (m : Pass.meld_record) ->
        let claimed =
          List.filter
            (fun id ->
              if Hashtbl.mem claimed_by id then false
              else begin
                Hashtbl.replace claimed_by id m.Pass.m_index;
                true
              end)
            m.Pass.m_branches
        in
        let sum f =
          List.fold_left
            (fun (b, o) id ->
              let get m = Option.fold ~none:0 ~some:f (stat_of m id) in
              (b + get base, o + get opt))
            (0, 0) claimed
        in
        let bd, od = sum (fun s -> s.Metrics.br_divergences) in
        let bc, oc = sum (fun s -> s.Metrics.br_cycles) in
        let bl, ol = sum (fun s -> s.Metrics.br_lost_lane_cycles) in
        {
          mr_meld = m;
          mr_claimed = claimed;
          mr_base_divergences = bd;
          mr_opt_divergences = od;
          mr_base_cycles = bc;
          mr_opt_cycles = oc;
          mr_base_lost = bl;
          mr_opt_lost = ol;
        })
      melds
  in
  let ids = Hashtbl.create 16 in
  let note m =
    Hashtbl.iter (fun id _ -> Hashtbl.replace ids id ()) m.Metrics.branches
  in
  note base;
  note opt;
  let branches =
    Hashtbl.fold (fun id () acc -> id :: acc) ids []
    |> List.sort String.compare
    |> List.map (fun id ->
           {
             bj_id = id;
             bj_base = stat_of base id;
             bj_opt = stat_of opt id;
             bj_meld = Hashtbl.find_opt claimed_by id;
           })
  in
  let site_of m id = Hashtbl.find_opt m.Metrics.mem_sites id in
  let site_ids = Hashtbl.create 16 in
  let note_sites m =
    Hashtbl.iter
      (fun id _ -> Hashtbl.replace site_ids id ())
      m.Metrics.mem_sites
  in
  note_sites base;
  note_sites opt;
  let mem_sites =
    Hashtbl.fold (fun id () acc -> id :: acc) site_ids []
    |> List.sort String.compare
    |> List.map (fun id ->
           { mj_id = id; mj_base = site_of base id; mj_opt = site_of opt id })
  in
  {
    rp_kernel = kernel;
    rp_block_size = block_size;
    rp_seed = seed;
    rp_n = n;
    rp_correct = correct;
    rp_rewrites = rewrites;
    rp_mem_model = Sim.mem_model_name mem_model;
    rp_reconvergence = Sim.reconvergence_name reconvergence;
    rp_base = base;
    rp_opt = opt;
    rp_melds = meld_rows;
    rp_branches = branches;
    rp_mem_sites = mem_sites;
  }

let compute ?seed ?n ?mem_model ?reconvergence (kernel : Kernel.t)
    ~(block_size : int) : t =
  let r : Experiment.result =
    Experiment.run ?seed ?n ?mem_model ?reconvergence kernel ~block_size
  in
  build ~mem_model:r.machine.mem_model ~reconvergence:r.machine.reconvergence
    ~kernel:r.tag ~block_size ~seed:r.seed ~n:r.n ~correct:r.correct
    ~rewrites:r.rewrites ~base:r.base ~opt:r.opt
    ~melds:(Option.fold ~none:[] ~some:(fun s -> s.Pass.melds) r.pass_stats)
    ()

let compute_many ?jobs ?seed ?n ?mem_model ?reconvergence
    (points : (Kernel.t * int) list) : t list =
  Parallel_sweep.map ?jobs
    (fun (k, bs) -> compute ?seed ?n ?mem_model ?reconvergence k ~block_size:bs)
    points

(* ------------------------------------------------------------------ *)
(* Renderers.  All three consume only the report record, so they are
   deterministic wherever the report is. *)

let speedup_str (t : t) : string =
  if t.rp_opt.Metrics.cycles = 0 then "n/a"
  else
    Printf.sprintf "%.2fx"
      (float_of_int t.rp_base.Metrics.cycles
      /. float_of_int t.rp_opt.Metrics.cycles)

let pair_str (m : Pass.meld_record) : string =
  Printf.sprintf "%s ~ %s" m.Pass.m_st m.Pass.m_sf

(* Cells shared by the text and markdown renderers: a site counter (0
   for a run without the site), its coalescing, and its L1 hit
   percentage ("-" for a site without global traffic) *)
let g f = Option.fold ~none:0 ~some:f
let coal = Option.fold ~none:0. ~some:Metrics.site_coalescing

let hitp ?(pct = "") = function
  | Some s when s.Metrics.ms_accesses > 0 ->
      Printf.sprintf "%.0f%s"
        (100.
        *. float_of_int s.Metrics.ms_l1_hits
        /. float_of_int s.Metrics.ms_accesses)
        pct
  | _ -> "-"

(* the width of a text column: its widest cell, and at least [min] *)
let width (min : int) (cells : string list) : int =
  List.fold_left (fun w c -> max w (String.length c)) min cells

let header_lines (t : t) : string list =
  [
    Printf.sprintf "kernel %s  block_size %d  (seed %d, n %d, %s \
                    reconvergence)"
      t.rp_kernel t.rp_block_size t.rp_seed t.rp_n t.rp_reconvergence;
    Printf.sprintf
      "base %d cycles -> opt %d cycles  (delta %d, speedup %s)  %s"
      t.rp_base.Metrics.cycles t.rp_opt.Metrics.cycles (delta t)
      (speedup_str t)
      (if t.rp_correct then "correct" else "INCORRECT");
  ]

let to_text (t : t) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  List.iter (fun s -> line "%s" s) (header_lines t);
  if no_divergence t then
    line
      "no divergence: the baseline never split a warp and no meld was \
       applied; nothing to attribute."
  else begin
    line "per-meld attribution (divergent-arm issue cycles, base -> opt):";
    let wr =
      width 14 (List.map (fun r -> r.mr_meld.Pass.m_region) t.rp_melds)
    and wp = width 24 (List.map (fun r -> pair_str r.mr_meld) t.rp_melds) in
    line "  %3s  %-*s %-*s %8s %9s  %16s %10s" "#" wr "region" wp
      "melded pair" "FP_S" "branches" "div cycles" "saved";
    List.iter
      (fun r ->
        line "  %3d  %-*s %-*s %8.2f %9d  %7d -> %-6d %10d"
          r.mr_meld.Pass.m_index wr r.mr_meld.Pass.m_region wp
          (pair_str r.mr_meld) r.mr_meld.Pass.m_fp_s
          (List.length r.mr_claimed) r.mr_base_cycles r.mr_opt_cycles
          (meld_saved r))
      t.rp_melds;
    let attributed =
      List.fold_left (fun a r -> a + meld_saved r) 0 t.rp_melds
    in
    line "  residual (melded-path execution, reconvergence, secondary): %d"
      (residual t);
    line "  sum: %d attributed + %d residual = %d = total delta" attributed
      (residual t) (delta t);
    let unclaimed =
      List.filter
        (fun bj -> bj.bj_meld = None && bj.bj_base <> None)
        t.rp_branches
    in
    if unclaimed <> [] then begin
      line "unmelded divergent branches (baseline divergences / cycles):";
      let wb = width 24 (List.map (fun bj -> bj.bj_id) unclaimed) in
      List.iter
        (fun bj ->
          match bj.bj_base with
          | None -> ()
          | Some s ->
              line "  %-*s %6d / %d" wb bj.bj_id s.Metrics.br_divergences
                s.Metrics.br_cycles)
        unclaimed
    end
  end;
  line "memory (%s model): base %d mem cycles -> opt %d  (delta %d)"
    t.rp_mem_model t.rp_base.Metrics.mem_cycles t.rp_opt.Metrics.mem_cycles
    (mem_delta t);
  if no_memory t then
    line "  no memory traffic: neither run issued a load or store."
  else begin
    line
      "per-site memory attribution (base -> opt; txn/acc = transactions \
       per access):";
    let ws = width 18 (List.map (fun mj -> mj.mj_id) t.rp_mem_sites) in
    line "  %-*s %11s %13s %11s %9s %9s %16s %8s" ws "site" "accesses"
      "txn/acc" "L1 hit" "conf cyc" "stall cyc" "cycles" "saved";
    List.iter
      (fun mj ->
        let b = mj.mj_base and o = mj.mj_opt in
        line "  %-*s %5d>%-5d %6.2f>%-6.2f %5s>%-5s %4d>%-4d %4d>%-4d \
              %7d>%-8d %8d"
          ws mj.mj_id
          (g (fun s -> s.Metrics.ms_accesses) b)
          (g (fun s -> s.Metrics.ms_accesses) o)
          (coal b) (coal o) (hitp ~pct:"%" b) (hitp ~pct:"%" o)
          (g (fun s -> s.Metrics.ms_bank_conflict_cycles) b)
          (g (fun s -> s.Metrics.ms_bank_conflict_cycles) o)
          (g (fun s -> s.Metrics.ms_stall_cycles) b)
          (g (fun s -> s.Metrics.ms_stall_cycles) o)
          (g (fun s -> s.Metrics.ms_cycles) b)
          (g (fun s -> s.Metrics.ms_cycles) o)
          (mem_site_saved mj))
      t.rp_mem_sites;
    let attributed =
      List.fold_left (fun a mj -> a + mem_site_saved mj) 0 t.rp_mem_sites
    in
    line "  sum: %d site-attributed + %d non-memory residual = %d = total \
          delta"
      attributed (mem_residual t) (delta t)
  end;
  Buffer.contents b

let to_markdown (t : t) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "### %s (block size %d)" t.rp_kernel t.rp_block_size;
  line "";
  line "base %d cycles, opt %d cycles, delta %d, speedup %s, %s"
    t.rp_base.Metrics.cycles t.rp_opt.Metrics.cycles (delta t)
    (speedup_str t)
    (if t.rp_correct then "correct" else "**INCORRECT**");
  line "";
  if no_divergence t then
    line "_no divergence: nothing to attribute._"
  else begin
    line "| # | region | melded pair | FP_S | branches | base cycles | \
          opt cycles | saved |";
    line "|---|--------|-------------|------|----------|-------------|\
          ------------|-------|";
    List.iter
      (fun r ->
        line "| %d | `%s` | `%s` | %.2f | %d | %d | %d | %d |"
          r.mr_meld.Pass.m_index r.mr_meld.Pass.m_region
          (pair_str r.mr_meld) r.mr_meld.Pass.m_fp_s
          (List.length r.mr_claimed) r.mr_base_cycles r.mr_opt_cycles
          (meld_saved r))
      t.rp_melds;
    line "| | residual | | | | | | %d |" (residual t);
    line "| | **total** | | | | | | **%d** |" (delta t)
  end;
  if not (no_memory t) then begin
    line "";
    line "memory (%s model), base -> opt:" t.rp_mem_model;
    line "";
    line "| site | accesses | txn/access | L1 hit %% | conflict cyc | \
          stall cyc | cycles | saved |";
    line "|------|----------|------------|----------|--------------|\
          -----------|--------|-------|";
    List.iter
      (fun mj ->
        let b = mj.mj_base and o = mj.mj_opt in
        line "| `%s` | %d → %d | %.2f → %.2f | %s → %s | %d → %d | \
              %d → %d | %d → %d | %d |"
          mj.mj_id
          (g (fun s -> s.Metrics.ms_accesses) b)
          (g (fun s -> s.Metrics.ms_accesses) o)
          (coal b) (coal o) (hitp b) (hitp o)
          (g (fun s -> s.Metrics.ms_bank_conflict_cycles) b)
          (g (fun s -> s.Metrics.ms_bank_conflict_cycles) o)
          (g (fun s -> s.Metrics.ms_stall_cycles) b)
          (g (fun s -> s.Metrics.ms_stall_cycles) o)
          (g (fun s -> s.Metrics.ms_cycles) b)
          (g (fun s -> s.Metrics.ms_cycles) o)
          (mem_site_saved mj))
      t.rp_mem_sites;
    line "| | | | | | non-memory residual | | %d |" (mem_residual t);
    line "| | | | | | **total** | | **%d** |" (delta t)
  end;
  Buffer.contents b

let json_branch_stat (s : Metrics.branch_stat) : J.t =
  J.Obj
    [
      ("divergences", J.Int s.Metrics.br_divergences);
      ("divergent_cycles", J.Int s.Metrics.br_cycles);
      ("lost_lane_cycles", J.Int s.Metrics.br_lost_lane_cycles);
      ("reconvergences", J.Int s.Metrics.br_reconvergences);
    ]

let json_site_stat (s : Metrics.mem_site_stat) : J.t =
  J.Obj
    [
      ("issues", J.Int s.Metrics.ms_issues);
      ("accesses", J.Int s.Metrics.ms_accesses);
      ("transactions", J.Int s.Metrics.ms_transactions);
      ("coalescing", J.Float (Metrics.site_coalescing s));
      ("l1_hits", J.Int s.Metrics.ms_l1_hits);
      ("l1_misses", J.Int s.Metrics.ms_l1_misses);
      ("bank_conflicts", J.Int s.Metrics.ms_bank_conflicts);
      ("bank_conflict_cycles", J.Int s.Metrics.ms_bank_conflict_cycles);
      ("stall_cycles", J.Int s.Metrics.ms_stall_cycles);
      ("cycles", J.Int s.Metrics.ms_cycles);
    ]

let json_body (t : t) : (string * J.t) list =
  [
    ("kernel", J.Str t.rp_kernel);
    ("block_size", J.Int t.rp_block_size);
    ("seed", J.Int t.rp_seed);
    ("n", J.Int t.rp_n);
    ("correct", J.Bool t.rp_correct);
    ("rewrites", J.Int t.rp_rewrites);
    ("base_cycles", J.Int t.rp_base.Metrics.cycles);
    ("opt_cycles", J.Int t.rp_opt.Metrics.cycles);
    ("cycles_delta", J.Int (delta t));
    ("no_divergence", J.Bool (no_divergence t));
    ( "melds",
      J.List
        (List.map
           (fun r ->
             J.Obj
               [
                 ("index", J.Int r.mr_meld.Pass.m_index);
                 ("region", J.Str r.mr_meld.Pass.m_region);
                 ("st", J.Str r.mr_meld.Pass.m_st);
                 ("sf", J.Str r.mr_meld.Pass.m_sf);
                 ("fp_s", J.Float r.mr_meld.Pass.m_fp_s);
                 ( "branches",
                   J.List
                     (List.map (fun s -> J.Str s) r.mr_meld.Pass.m_branches)
                 );
                 ( "claimed",
                   J.List (List.map (fun s -> J.Str s) r.mr_claimed) );
                 ("base_divergences", J.Int r.mr_base_divergences);
                 ("opt_divergences", J.Int r.mr_opt_divergences);
                 ("base_divergent_cycles", J.Int r.mr_base_cycles);
                 ("opt_divergent_cycles", J.Int r.mr_opt_cycles);
                 ("base_lost_lane_cycles", J.Int r.mr_base_lost);
                 ("opt_lost_lane_cycles", J.Int r.mr_opt_lost);
                 ("cycles_saved", J.Int (meld_saved r));
               ])
           t.rp_melds) );
    ("residual_cycles", J.Int (residual t));
    ("mem_model", J.Str t.rp_mem_model);
    ("reconvergence", J.Str t.rp_reconvergence);
    ("base_mem_cycles", J.Int t.rp_base.Metrics.mem_cycles);
    ("opt_mem_cycles", J.Int t.rp_opt.Metrics.mem_cycles);
    ("mem_cycles_delta", J.Int (mem_delta t));
    ("mem_residual_cycles", J.Int (mem_residual t));
    ( "mem_sites",
      J.List
        (List.map
           (fun mj ->
             J.Obj
               ([ ("id", J.Str mj.mj_id) ]
               @ (match mj.mj_base with
                 | None -> []
                 | Some s -> [ ("base", json_site_stat s) ])
               @
               match mj.mj_opt with
               | None -> []
               | Some s -> [ ("opt", json_site_stat s) ]))
           t.rp_mem_sites) );
    ( "branches",
      J.List
        (List.map
           (fun bj ->
             J.Obj
               ([ ("id", J.Str bj.bj_id) ]
               @ (match bj.bj_base with
                 | None -> []
                 | Some s -> [ ("base", json_branch_stat s) ])
               @ (match bj.bj_opt with
                 | None -> []
                 | Some s -> [ ("opt", json_branch_stat s) ])
               @
               match bj.bj_meld with
               | None -> []
               | Some i -> [ ("meld", J.Int i) ]))
           t.rp_branches) );
  ]

let to_json (t : t) : J.t = J.Obj (("schema", J.Str schema) :: json_body t)

let many_to_json (ts : t list) : J.t =
  J.Obj
    [
      ("schema", J.Str schema);
      ("reports", J.List (List.map (fun t -> J.Obj (json_body t)) ts));
    ]

let fill_metrics (reg : Darm_obs.Metrics_registry.t) (t : t) : unit =
  let ws = Experiment.sim_config.Darm_sim.Simulator.warp_size in
  let fill run m =
    Metrics.fill_registry reg
      ~labels:[ ("kernel", t.rp_kernel); ("run", run) ]
      m ~warp_size:ws
  in
  fill "base" t.rp_base;
  fill "opt" t.rp_opt
