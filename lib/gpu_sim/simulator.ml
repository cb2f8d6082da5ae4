(** SIMT execution engine with IPDOM-based reconvergence.

    Models the execution substrate of the paper's evaluation platform
    (an AMD Vega-class GPU) at the fidelity the evaluation needs:

    - threads are grouped into warps ([warp_size] lanes, default 64 like
      an AMD wavefront) that issue instructions in lock-step under an
      active mask;
    - each warp maintains a SIMT reconvergence stack: a divergent
      conditional branch pushes one frame per taken arm with the
      reconvergence point set to the branch block's immediate
      post-dominator, and the parent frame resumes there once both arms
      have drained — the IPDOM reconvergence scheme of §I/§II;
    - every issued instruction costs its {!Darm_analysis.Latency} value
      in cycles {e per issue}, so a divergent region pays for both arms
      serially while a melded region pays once — the first-order effect
      behind all of the paper's speedups;
    - [syncthreads] suspends a warp until every warp of its block
      reaches the barrier;
    - the counters of {!Metrics} correspond to the rocprof counters used
      in §VI (ALU utilization, vector/LDS/flat memory instructions).

    Integer arithmetic is uniformly two's-complement i32 via
    {!Darm_ir.I32} — the same evaluator the constant folder uses.

    The interpreter runs over a {e pre-decoded} function representation
    built once per launch by {!prepare}: per-block instruction arrays
    (no list walks on the hot path), every operand a slot of an unboxed
    register file (constants and arguments included, so a lane's
    operand is a tag byte and a payload, and a lane's result allocates
    nothing), a lane executor resolved per
    instruction (no opcode dispatch or closure allocation per issue),
    memoized per-instruction latencies and classifications, and
    reusable scratch buffers for memory-transaction accounting.  Both
    reconvergence models issue through the same executors and the same
    accounting.

    The interpreter is also the correctness oracle: tests run the same
    kernel before and after melding and require bit-identical memory. *)

open Darm_ir
open Darm_ir.Ssa
open Memory

(** Parameters of the hierarchical memory model.  The cache line equals
    the 32-cell coalescing segment, so the L1 is indexed by segment
    number; capacity = [l1_sets * l1_ways] lines. *)
type hier_params = {
  l1_sets : int;  (** direct set count (power of two not required) *)
  l1_ways : int;  (** associativity, LRU replacement *)
  l1_hit_lat : int;  (** charged when every touched segment is resident *)
  l1_miss_lat : int;
      (** charged when any segment misses; also the slot occupancy time
          of the in-flight (MSHR) tracker *)
  txn_cycles : int;
      (** serialization cost of each coalesced segment beyond the
          first — the latency face of the transaction counter *)
  lds_conflict_cycles : int;
      (** cycles per extra LDS serialization phase (bank conflicts) *)
  mshr : int;
      (** bounded in-flight segment requests; a miss with every slot
          busy stalls issue until the earliest completes *)
}

let default_hier_params : hier_params =
  {
    l1_sets = 64;
    l1_ways = 4;
    l1_hit_lat = 28;
    l1_miss_lat = 180;
    txn_cycles = 4;
    lds_conflict_cycles = 2;
    mshr = 32;
  }

(** Memory model selector: [Flat] charges every access its static
    {!Darm_analysis.Latency} value — the original behaviour,
    bit-for-bit; [Hier] routes global traffic through coalescing, the
    L1 and the MSHR tracker and serializes LDS bank conflicts, so the
    charged latency depends on the dynamic access pattern. *)
type mem_model = Flat | Hier of hier_params

(** Parameters of independent thread scheduling. *)
type its_params = {
  its_reconv_wait : bool;
      (** convergence-optimizer barrier: a lane reaching a divergence's
          reconvergence point (the branch's IPDOM) waits for the sibling
          lanes of that split before proceeding, restoring maximal
          convergence like Volta's compiler-inserted reconvergence
          optimizer.  Deadlock-free by construction: whenever no lane of
          the warp is runnable, every waiting lane is released, so a
          sibling parked at a [syncthreads] (or exited via [ret]) can
          never wedge the warp.  [false] reconverges purely
          opportunistically — lanes join only when their PCs happen to
          coincide. *)
}

let default_its_params : its_params = { its_reconv_wait = true }

(** Reconvergence model selector: [Stack] is the IPDOM SIMT
    reconvergence stack — the original behaviour, bit-for-bit; [Its] is
    Volta-style independent thread scheduling, where every lane carries
    its own PC and active/blocked state and the warp scheduler issues
    for the runnable group of lanes sharing the minimal PC each cycle
    (MinPC), reconverging opportunistically when PCs coincide. *)
type reconvergence = Stack | Its of its_params

let mem_models = [ ("flat", Flat); ("hier", Hier default_hier_params) ]

let mem_model_name = function Flat -> "flat" | Hier _ -> "hier"

let reconvergences = [ ("stack", Stack); ("its", Its default_its_params) ]

let reconvergence_name = function Stack -> "stack" | Its _ -> "its"

type config = {
  warp_size : int;
  latency : Darm_analysis.Latency.config;
  max_cycles_per_warp : int;
      (** runaway-loop guard.  Under [Stack] the budget is shared by the
          warp (lock-step issue); under [Its] each lane carries its own
          budget of this many issues, so interleaving more lanes never
          trips the guard earlier than lock-step execution would. *)
  mem_model : mem_model;
      (** memory subsystem model; [Flat] (the default) keeps per-opcode
          latencies, [Hier] makes coalescing/L1/LDS behaviour
          latency-bearing.  Per-site attribution ({!Metrics.site_stats})
          is collected under both. *)
  reconvergence : reconvergence;
      (** divergence handling model; [Stack] (the default) is the IPDOM
          SIMT stack, [Its] independent thread scheduling.  Orthogonal
          to [mem_model]: all four combinations are valid. *)
  obs : Darm_obs.Trace.t option;
      (** structured divergence timeline: per-warp [warp.diverge] /
          [warp.reconverge] / [warp.barrier] instants and per-block
          cycle spans, timestamped with the deterministic cycle
          counter.  [None] (the default) emits nothing. *)
  obs_pid : int;
      (** pid stamped on this run's [obs] events, so two simulations
          (e.g. baseline and melded) can share one buffer without
          their tracks colliding *)
}

let default_config : config =
  {
    warp_size = 64;
    latency = Darm_analysis.Latency.default;
    max_cycles_per_warp = 400_000_000;
    mem_model = Flat;
    reconvergence = Stack;
    obs = None;
    obs_pid = 1;
  }

exception Sim_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

let eval_ibin (op : Op.ibinop) (x : int) (y : int) : int =
  try I32.eval_exn op x y
  with Division_by_zero -> (
    match op with
    | Op.Sdiv -> errf "sdiv by zero"
    | _ -> errf "srem by zero")

(* inlined, so the float operands of the lane executors stay unboxed *)
let[@inline] eval_fbin (op : Op.fbinop) (x : float) (y : float) : float =
  match op with
  | Op.Fadd -> x +. y
  | Op.Fsub -> x -. y
  | Op.Fmul -> x *. y
  | Op.Fdiv -> x /. y
  | Op.Fmin -> Float.min x y
  | Op.Fmax -> Float.max x y

let[@inline] eval_fcmp (p : Op.fcmp_pred) (x : float) (y : float) : bool =
  match p with
  | Op.Foeq -> x = y
  | Op.Fone -> x <> y
  | Op.Folt -> x < y
  | Op.Fole -> x <= y
  | Op.Fogt -> x > y
  | Op.Foge -> x >= y

(* ------------------------------------------------------------------ *)
(* Register files *)

(** An unboxed register file: one cell per (slot, lane), at index
    [slot * warp_size + lane].  A cell is a tag byte and a payload:
    [ints] holds integers, booleans as 0/1 and pointer offsets, [flts]
    holds floats, and the tag says which (and which memory a pointer
    addresses).  A lane result is a few plain array stores — no
    allocation and no write barrier per lane. *)
type regfile = { tags : Bytes.t; ints : int array; flts : Float.Array.t }

(* cell tags; a pointer's tag names the memory it addresses *)
let t_undef = '\000'
let t_int = '\001'
let t_bool = '\002'
let t_float = '\003'
let t_gptr = '\004'
let t_sptr = '\005'

let make_regfile (cells : int) : regfile =
  {
    tags = Bytes.make cells t_undef;
    ints = Array.make cells 0;
    flts = Float.Array.make cells 0.;
  }

(* Every cell index below is [base + lane] with [base] a multiple of
   the warp size below the file's size and [lane] below the warp size,
   so the accessors skip the bounds checks. *)
let[@inline] tag (rf : regfile) (i : int) : char = Bytes.unsafe_get rf.tags i
let[@inline] int_cell (rf : regfile) (i : int) : int =
  Array.unsafe_get rf.ints i

let[@inline] set_undef (rf : regfile) (i : int) : unit =
  Bytes.unsafe_set rf.tags i t_undef

let[@inline] set_int (rf : regfile) (i : int) (n : int) : unit =
  Bytes.unsafe_set rf.tags i t_int;
  Array.unsafe_set rf.ints i n

let[@inline] set_bool (rf : regfile) (i : int) (b : bool) : unit =
  Bytes.unsafe_set rf.tags i t_bool;
  Array.unsafe_set rf.ints i (Bool.to_int b)

let[@inline] set_float (rf : regfile) (i : int) (x : float) : unit =
  Bytes.unsafe_set rf.tags i t_float;
  Float.Array.unsafe_set rf.flts i x

let[@inline] set_ptr (rf : regfile) (i : int) (t : char) (off : int) : unit =
  Bytes.unsafe_set rf.tags i t;
  Array.unsafe_set rf.ints i off

let[@inline] copy_cell (src : regfile) (si : int) (dst : regfile) (di : int) :
    unit =
  Bytes.unsafe_set dst.tags di (Bytes.unsafe_get src.tags si);
  Array.unsafe_set dst.ints di (Array.unsafe_get src.ints si);
  Float.Array.unsafe_set dst.flts di (Float.Array.unsafe_get src.flts si)

(* The typed views of a cell.  [int_at] accepts booleans and
   [float_at] integers; undef and the other kinds trap with the
   operation's name. *)
let int_at (what : string) (rf : regfile) (i : int) : int =
  let t = tag rf i in
  if t = t_int || t = t_bool then int_cell rf i
  else if t = t_undef then errf "%s: use of undef integer" what
  else errf "%s: expected integer" what

let bool_at (what : string) (rf : regfile) (i : int) : bool =
  let t = tag rf i in
  if t = t_bool || t = t_int then int_cell rf i <> 0
  else if t = t_undef then errf "%s: use of undef condition" what
  else errf "%s: expected boolean" what

let float_at (what : string) (rf : regfile) (i : int) : float =
  let t = tag rf i in
  if t = t_float then Float.Array.unsafe_get rf.flts i
  else if t = t_int then float_of_int (int_cell rf i)
  else if t = t_undef then errf "%s: use of undef float" what
  else errf "%s: expected float" what

(* The memory boundary: a load decodes a memory cell into a register
   cell without allocating; a store builds the memory value. *)
let set_rv (rf : regfile) (i : int) (v : rv) : unit =
  match v with
  | Rint n -> set_int rf i n
  | Rbool b -> set_bool rf i b
  | Rfloat x -> set_float rf i x
  | Rptr (Sp_global, off) -> set_ptr rf i t_gptr off
  | Rptr (Sp_shared, off) -> set_ptr rf i t_sptr off
  | Rundef -> set_undef rf i

(* booleans are immutable, so every store can share the two values *)
let rtrue = Rbool true
let rfalse = Rbool false

let rv_at (rf : regfile) (i : int) : rv =
  let t = tag rf i in
  if t = t_int then Rint (int_cell rf i)
  else if t = t_bool then if int_cell rf i <> 0 then rtrue else rfalse
  else if t = t_float then Rfloat (Float.Array.unsafe_get rf.flts i)
  else if t = t_gptr then Rptr (Sp_global, int_cell rf i)
  else if t = t_sptr then Rptr (Sp_shared, int_cell rf i)
  else Rundef

(* ------------------------------------------------------------------ *)
(* Warp state *)

(** One SIMT-stack entry.  The attribution fields are mutable so the
    ITS loop can reuse one scratch frame for every issue; stack frames
    never change them. *)
type frame = {
  mutable pc : int;  (** dense block index *)
  mutable ip : int;  (** resume index into [db_code] (for barriers) *)
  rpc : int;  (** pop when [pc] reaches this block; -1 = never *)
  mask : bool array;
  mutable origin : int;
      (** dense index of the divergent branch block that pushed this
          frame; -1 for uniform control flow.  Issue cycles under the
          frame are attributed to this branch (innermost branch wins
          under nested divergence). *)
  mutable f_lost : int;
      (** lanes of the split's parent mask left inactive while this
          frame runs — the other arm's lane count; 0 when uniform *)
  mutable f_active : int;  (** lanes set in [mask] *)
}

type warp_status = Running | At_barrier | Finished

type warp = {
  tid_base : int;  (** thread index (within block) of lane 0 *)
  rf : regfile;
      (** the warp's register file.  Slots past the instructions' hold
          the function's constants and kernel arguments, written once
          per launch and only ever read. *)
  pred : int array;  (** per-lane predecessor block (dense), -1 = none *)
  mutable stack : frame list;
  mutable status : warp_status;
}

(** What an instruction sees of its thread block beyond its warp. *)
type block_env = {
  global : Memory.t;
  shared : Memory.t;
  block_idx : int;
  block_dim : int;
  grid_dim : int;
}

(** A lane executor: runs one instruction for the lanes set in the
    mask.  Resolved once per instruction at decode time. *)
type exec = block_env -> warp -> bool array -> unit

(* ------------------------------------------------------------------ *)
(* Pre-decoded function representation *)

type mem_class = Mc_none | Mc_global | Mc_shared | Mc_flat

type kind = K_exec | K_sync | K_br | K_condbr | K_ret

(** Decoded instruction: executor plus memoized latency,
    classification and operand/successor arrays. *)
type dinstr = {
  d_kind : kind;
  d_exec : exec;  (** the lane executor; [K_exec] only *)
  d_lat : int;  (** memoized issue latency *)
  d_alu : bool;  (** memoized [Op.is_alu] *)
  d_mem : mem_class;  (** static pointer class of a memory access *)
  d_ptr : int;
      (** register-file base ([slot * warp_size]) of a load/store's
          pointer, -1 otherwise *)
  d_site : int;
      (** dense static access-site index for load/store ([fctx.sites]
          maps it to the stable "<block>#<k>" id), -1 otherwise *)
  d_src : int array;  (** register-file bases of the operands *)
  d_succ : int array;  (** dense successor block indices *)
}

type dphi = {
  p_slot : int;  (** register-file base of the phi *)
  p_inc : int array;
      (** register-file base of the incoming value, indexed by dense
          pred index; -1 = no incoming (trap if ever read) *)
}

type dblock = {
  db_name : string;
  db_phis : dphi array;
  db_code : dinstr array;  (** body + terminator, phis excluded *)
  db_ipdom : int;  (** reconvergence point (dense index), -1 = none *)
}

type fctx = {
  dblocks : dblock array;  (** index 0 is the entry block *)
  nslots : int;  (** instruction slots: one per instruction *)
  consts : rv array;
      (** the values of slots [nslots ..]: one per distinct constant or
          argument, held by every lane *)
  max_phis : int;
  shared_size : int;
  sites : string array;
      (** static access-site ids, indexed by [d_site]: "<block>#<k>"
          with [k] the instruction's index among the block's non-phi
          instructions — stable across runs like branch ids *)
}

let no_exec : exec = fun _ _ _ -> errf "no lane executor"

(* an integer in every lane of the mask *)
let fill_int (rf : regfile) (o : int) (mask : bool array) (n : int) : unit =
  for lane = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask lane then set_int rf (o + lane) n
  done

(* Lane executors.  Undef ({e poison}) semantics follow LLVM and real
   hardware: pure ALU operations on undef produce undef (melding
   executes gap instructions speculatively, and their discarded
   wrong-side results may depend on undef entry-phi values);
   dereferencing an undef pointer, dividing by an undef value or
   branching on an undef condition is a genuine error and traps.  Each
   executor is a plain loop over the lanes reading and writing
   register-file cells at bases resolved here: the common operand kinds
   are handled inline, the rest through the typed views, and nothing
   is allocated per lane but a store's memory value. *)
let decode_exec (i : instr) ~(src : int array) ~(dst : int) ~(imm : int) :
    exec =
  let undef_operand k lane =
    errf "operand %d is undef in lane %d (instr %s, op %s)" k lane
      (Ssa.site i) (Op.to_string i.op)
  in
  let a = if Array.length src > 0 then src.(0) else -1 in
  let b = if Array.length src > 1 then src.(1) else -1 in
  let c = if Array.length src > 2 then src.(2) else -1 in
  let o = dst in
  match i.op with
  | Op.Ibin ((Op.Sdiv | Op.Srem) as op) ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then begin
            let y =
              if tag rf (b + lane) = t_undef then undef_operand 1 lane
              else int_at "ibin" rf (b + lane)
            in
            let x =
              if tag rf (a + lane) = t_undef then undef_operand 0 lane
              else int_at "ibin" rf (a + lane)
            in
            set_int rf (o + lane) (eval_ibin op x y)
          end
        done
  | Op.Ibin op ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then begin
            let ia = a + lane and ib = b + lane in
            let ta = tag rf ia and tb = tag rf ib in
            if ta = t_int && tb = t_int then
              set_int rf (o + lane)
                (I32.eval_exn op (int_cell rf ia) (int_cell rf ib))
            else if ta = t_undef || tb = t_undef then set_undef rf (o + lane)
            else
              set_int rf (o + lane)
                (I32.eval_exn op (int_at "ibin" rf ia) (int_at "ibin" rf ib))
          end
        done
  | Op.Fbin op ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then begin
            let ia = a + lane and ib = b + lane in
            let ta = tag rf ia and tb = tag rf ib in
            if ta = t_float && tb = t_float then
              set_float rf (o + lane)
                (eval_fbin op
                   (Float.Array.unsafe_get rf.flts ia)
                   (Float.Array.unsafe_get rf.flts ib))
            else if ta = t_undef || tb = t_undef then set_undef rf (o + lane)
            else
              set_float rf (o + lane)
                (eval_fbin op (float_at "fbin" rf ia) (float_at "fbin" rf ib))
          end
        done
  | Op.Icmp p ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then begin
            let ia = a + lane and ib = b + lane in
            let ta = tag rf ia and tb = tag rf ib in
            if ta = t_int && tb = t_int then
              set_bool rf (o + lane)
                (I32.compare_i32 p (int_cell rf ia) (int_cell rf ib))
            else if ta = t_undef || tb = t_undef then set_undef rf (o + lane)
            else
              set_bool rf (o + lane)
                (I32.compare_i32 p (int_at "icmp" rf ia) (int_at "icmp" rf ib))
          end
        done
  | Op.Fcmp p ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then begin
            let ia = a + lane and ib = b + lane in
            let ta = tag rf ia and tb = tag rf ib in
            if ta = t_float && tb = t_float then
              set_bool rf (o + lane)
                (eval_fcmp p
                   (Float.Array.unsafe_get rf.flts ia)
                   (Float.Array.unsafe_get rf.flts ib))
            else if ta = t_undef || tb = t_undef then set_undef rf (o + lane)
            else
              set_bool rf (o + lane)
                (eval_fcmp p (float_at "fcmp" rf ia) (float_at "fcmp" rf ib))
          end
        done
  | Op.Not ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then
            if tag rf (a + lane) = t_undef then set_undef rf (o + lane)
            else set_bool rf (o + lane) (not (bool_at "not" rf (a + lane)))
        done
  | Op.Select ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then
            (* the not-taken arm may be undef without poisoning *)
            if tag rf (a + lane) = t_undef then set_undef rf (o + lane)
            else
              copy_cell rf
                ((if bool_at "select" rf (a + lane) then b else c) + lane)
                rf (o + lane)
        done
  | Op.Load ->
      fun env w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then begin
            let ia = a + lane in
            let t = tag rf ia in
            if t = t_gptr then
              set_rv rf (o + lane) (Memory.read env.global (int_cell rf ia))
            else if t = t_sptr then
              set_rv rf (o + lane) (Memory.read env.shared (int_cell rf ia))
            else if t = t_undef then undef_operand 0 lane
            else errf "load: expected pointer"
          end
        done
  | Op.Store ->
      fun env w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then begin
            let ib = b + lane in
            let t = tag rf ib in
            if t = t_gptr then
              Memory.write env.global (int_cell rf ib) (rv_at rf (a + lane))
            else if t = t_sptr then
              Memory.write env.shared (int_cell rf ib) (rv_at rf (a + lane))
            else if t = t_undef then undef_operand 1 lane
            else errf "store: expected pointer"
          end
        done
  | Op.Gep ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then begin
            let ia = a + lane and ib = b + lane in
            let ta = tag rf ia in
            if ta = t_gptr || ta = t_sptr then begin
              let tb = tag rf ib in
              if tb = t_int then
                set_ptr rf (o + lane) ta (int_cell rf ia + int_cell rf ib)
              else if tb = t_undef then set_undef rf (o + lane)
              else
                set_ptr rf (o + lane) ta (int_cell rf ia + int_at "gep" rf ib)
            end
            else if ta = t_undef then set_undef rf (o + lane)
            else errf "gep: expected pointer"
          end
        done
  | Op.Thread_idx ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then
            set_int rf (o + lane) (w.tid_base + lane)
        done
  | Op.Block_idx -> fun env w mask -> fill_int w.rf o mask env.block_idx
  | Op.Block_dim -> fun env w mask -> fill_int w.rf o mask env.block_dim
  | Op.Grid_dim -> fun env w mask -> fill_int w.rf o mask env.grid_dim
  | Op.Alloc_shared _ ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then set_ptr rf (o + lane) t_sptr imm
        done
  | Op.Sitofp ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then
            if tag rf (a + lane) = t_undef then set_undef rf (o + lane)
            else
              set_float rf (o + lane)
                (float_of_int (int_at "sitofp" rf (a + lane)))
        done
  | Op.Fptosi ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then
            if tag rf (a + lane) = t_undef then set_undef rf (o + lane)
            else
              set_int rf (o + lane)
                (int_of_float
                   (if tag rf (a + lane) = t_float then
                      Float.Array.unsafe_get rf.flts (a + lane)
                    else float_at "fptosi" rf (a + lane)))
        done
  | Op.Addrspace_cast ->
      fun _ w mask ->
        let rf = w.rf in
        for lane = 0 to Array.length mask - 1 do
          if Array.unsafe_get mask lane then
            copy_cell rf (a + lane) rf (o + lane)
        done
  | Op.Syncthreads | Op.Phi | Op.Br | Op.Condbr | Op.Ret -> no_exec

(* Constants and arguments become register slots, deduplicated by
   value; floats are keyed by their bits so [0.0] and [-0.0] (and NaN
   payloads) stay apart. *)
let const_key = function
  | Rfloat x -> `Bits (Int64.bits_of_float x)
  | v -> `Value v

let prepare (cfg : config) (fn : func) ~(args : rv array) : fctx =
  (* arguments bind parameters positionally: check the count before
     any [Param] operand reads [args] *)
  if List.length fn.params <> Array.length args then
    errf "kernel @%s expects %d arguments, got %d" fn.fname
      (List.length fn.params) (Array.length args);
  Verify.run_exn fn;
  let ws = cfg.warp_size in
  let pdt = Darm_analysis.Domtree.compute_post fn in
  let blocks = Array.of_list fn.blocks_list in
  let nblocks = Array.length blocks in
  let bidx : (int, int) Hashtbl.t = Hashtbl.create (2 * nblocks) in
  Array.iteri (fun k b -> Hashtbl.replace bidx b.bid k) blocks;
  (* dense register slots: one per instruction *)
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let nslots = ref 0 in
  iter_instrs fn (fun i ->
      Hashtbl.replace slot_of i.id !nslots;
      incr nslots);
  let nslots = !nslots in
  (* then one slot per distinct constant *)
  let consts = Hashtbl.create 64 in
  let consts_rev = ref [] in
  let const_slot (v : rv) : int =
    let key = const_key v in
    match Hashtbl.find_opt consts key with
    | Some s -> s
    | None ->
        let s = nslots + Hashtbl.length consts in
        Hashtbl.replace consts key s;
        consts_rev := v :: !consts_rev;
        s
  in
  (* shared-memory layout *)
  let shared_layout = Hashtbl.create 4 in
  let off = ref 0 in
  iter_instrs fn (fun i ->
      match i.op with
      | Op.Alloc_shared n ->
          Hashtbl.replace shared_layout i.id !off;
          off := !off + n
      | _ -> ());
  let slot_of_value (v : value) : int =
    match v with
    | Int n -> const_slot (Rint (I32.to_i32 n))
    | Bool b -> const_slot (if b then rtrue else rfalse)
    | Float x -> const_slot (Rfloat x)
    | Undef _ -> const_slot Rundef
    | Param p -> const_slot args.(p.pindex)
    | Instr i -> Hashtbl.find slot_of i.id
  in
  (* executors address a slot's cells from its register-file base *)
  let base_of_value (v : value) : int = slot_of_value v * ws in
  let base_of (i : instr) : int = Hashtbl.find slot_of i.id * ws in
  let sites_rev = ref [] in
  let nsites = ref 0 in
  let decode_instr ~(bname : string) ~(k : int) (i : instr) : dinstr =
    let src = Array.map base_of_value i.operands in
    let d_mem, d_ptr =
      if Op.is_memory i.op then begin
        let pi = if i.op = Op.Store then 1 else 0 in
        ( (match value_ty i.operands.(pi) with
          | Types.Ptr Types.Global -> Mc_global
          | Types.Ptr Types.Shared -> Mc_shared
          | Types.Ptr Types.Flat -> Mc_flat
          | _ -> Mc_none),
          src.(pi) )
      end
      else (Mc_none, -1)
    in
    let d_site =
      if d_mem <> Mc_none then begin
        let s = !nsites in
        sites_rev := Printf.sprintf "%s#%d" bname k :: !sites_rev;
        incr nsites;
        s
      end
      else -1
    in
    let imm =
      match i.op with
      | Op.Alloc_shared _ -> Hashtbl.find shared_layout i.id
      | _ -> 0
    in
    {
      d_kind =
        (match i.op with
        | Op.Syncthreads -> K_sync
        | Op.Br -> K_br
        | Op.Condbr -> K_condbr
        | Op.Ret -> K_ret
        | _ -> K_exec);
      d_exec = decode_exec i ~src ~dst:(base_of i) ~imm;
      d_lat = Darm_analysis.Latency.of_instr cfg.latency i;
      d_alu = Op.is_alu i.op;
      d_mem;
      d_ptr;
      d_site;
      d_src = src;
      d_succ = Array.map (fun b -> Hashtbl.find bidx b.bid) i.blocks;
    }
  in
  (* one write per incoming edge, the first per pred winning; bases are
     resolved in dense block order, so constants are numbered in block
     order *)
  let phi_row (p : instr) : int array =
    let row = Array.make nblocks (-1) in
    let hit = ref [] in
    Array.iteri
      (fun j (blk : block) ->
        match Hashtbl.find_opt bidx blk.bid with
        | Some k when row.(k) < 0 ->
            row.(k) <- j;
            hit := k :: !hit
        | _ -> ())
      p.blocks;
    List.iter
      (fun k -> row.(k) <- base_of_value p.operands.(row.(k)))
      (List.sort compare !hit);
    row
  in
  let decode_block (b : block) : dblock =
    let db_phis =
      Array.of_list
        (List.map
           (fun p -> { p_slot = base_of p; p_inc = phi_row p })
           (phis b))
    in
    let db_code =
      Array.of_list
        (List.mapi
           (fun k i -> decode_instr ~bname:b.bname ~k i)
           (non_phis b))
    in
    let db_ipdom =
      match Darm_analysis.Domtree.idom pdt b with
      | Some r -> Hashtbl.find bidx r.bid
      | None -> -1
    in
    { db_name = b.bname; db_phis; db_code; db_ipdom }
  in
  let dblocks = Array.map decode_block blocks in
  let max_phis =
    Array.fold_left
      (fun acc db -> max acc (Array.length db.db_phis))
      0 dblocks
  in
  {
    dblocks;
    nslots;
    consts = Array.of_list (List.rev !consts_rev);
    max_phis;
    shared_size = !off;
    sites = Array.of_list (List.rev !sites_rev);
  }

(** Mutable state of the hierarchical memory model.  Reset at every
    thread-block boundary — blocks are scheduled independently, so
    neither cache contents nor in-flight requests survive a block
    swap. *)
type hier_state = {
  hp : hier_params;
  l1_tags : int array;
      (** resident segment per line, [set * ways + way]; -1 = invalid *)
  l1_lru : int array;  (** last-touch tick per line (LRU victim = min) *)
  mutable l1_tick : int;
  mshr_ready : int array;
      (** cycle at which each in-flight slot frees; clocked by
          [metrics.cycles] *)
}

let make_hier_state (hp : hier_params) : hier_state =
  {
    hp;
    l1_tags = Array.make (max 1 (hp.l1_sets * hp.l1_ways)) (-1);
    l1_lru = Array.make (max 1 (hp.l1_sets * hp.l1_ways)) 0;
    l1_tick = 0;
    mshr_ready = Array.make (max 1 hp.mshr) 0;
  }

let reset_hier_state (h : hier_state) : unit =
  Array.fill h.l1_tags 0 (Array.length h.l1_tags) (-1);
  Array.fill h.l1_lru 0 (Array.length h.l1_lru) 0;
  h.l1_tick <- 0;
  Array.fill h.mshr_ready 0 (Array.length h.mshr_ready) 0

(** Result of one warp-wide address scan ({!scan_mem}), in reusable
    scratch. *)
type mem_scan = {
  segs : int array;  (** distinct global segments, first-touch order *)
  mutable nseg : int;
  mutable shared_seen : bool;  (** some lane addressed shared memory *)
  mutable conflicts : int;
      (** LDS serialization phases beyond the first, over all 32-lane
          phases *)
  bank_offs : int array;  (** shared offsets of one 32-lane phase *)
  bank_count : int array;  (** distinct offsets per bank; all 0 between scans *)
}

type launch_ctx = {
  cfg : config;
  fctx : fctx;
  env : block_env;
  metrics : Metrics.t;
  (* reusable scratch, private to this block's sequential warp loop *)
  scan : mem_scan;
  phi_stage : regfile;
      (** two-phase phi staging buffer: one row per phi of a block *)
  cond_sel : bool array;  (** per-lane branch outcome of one condbr *)
  (* per-branch divergence attribution, indexed by dense block index
     of the branch block; folded into [metrics.branches] (keyed by
     block name — the stable static branch id) at the end of the
     launch.  Shared across the whole grid like the scratch buffers. *)
  br_div : int array;  (** warp splits at this branch *)
  br_cycles : int array;  (** issue cycles inside the branch's arms *)
  br_lost : int array;  (** idle-lane cycles inside the arms *)
  br_reconv : int array;  (** arm completions at the IPDOM *)
  (* per-site memory attribution, indexed by [d_site]; folded into
     [metrics.mem_sites] (keyed by the stable "<block>#<k>" site id) at
     the end of the launch, mirroring the branch arrays above. *)
  ms_issues : int array;
  ms_accesses : int array;
  ms_transactions : int array;
  ms_l1_hits : int array;
  ms_l1_misses : int array;
  ms_bank_conflicts : int array;
  ms_bank_conflict_cycles : int array;
  ms_stall_cycles : int array;
  ms_cycles : int array;
  hier : hier_state option;  (** [Some] iff [cfg.mem_model] is [Hier] *)
}

(* ------------------------------------------------------------------ *)
(* Cost accounting *)

let popcount (mask : bool array) =
  let c = ref 0 in
  for k = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask k then incr c
  done;
  !c

(* ------------------------------------------------------------------ *)
(* Structured observability.

   Timeline events are stamped with [metrics.cycles] — a deterministic
   function of the execution — so traces are byte-identical across
   runs and domain-pool sizes.  Per-warp events go on tid
   [1 + tid_base] (tid 0 carries the per-block cycle spans).  Callers
   test [observing] first, so an unobserved run builds no event
   arguments. *)

module Tr = Darm_obs.Trace

let observing (ctx : launch_ctx) =
  match ctx.cfg.obs with None -> false | Some _ -> true

(* active mask as hex, lane 0 in the least-significant bit *)
let mask_hex (mask : bool array) : string =
  let ws = Array.length mask in
  let nibbles = (ws + 3) / 4 in
  let b = Bytes.create nibbles in
  for k = 0 to nibbles - 1 do
    let v = ref 0 in
    for j = 0 to 3 do
      let lane = ((nibbles - 1 - k) * 4) + j in
      if lane < ws && mask.(lane) then v := !v lor (1 lsl j)
    done;
    Bytes.set b k "0123456789abcdef".[!v]
  done;
  Bytes.to_string b

let obs_warp (ctx : launch_ctx) (w : warp) (name : string)
    (args : (string * Tr.value) list) : unit =
  match ctx.cfg.obs with
  | None -> ()
  | Some tr ->
      Tr.instant tr ~cat:"sim" ~pid:ctx.cfg.obs_pid ~tid:(1 + w.tid_base)
        ~ts:ctx.metrics.Metrics.cycles ~args name

let obs_diverge (ctx : launch_ctx) (w : warp) (db : dblock) ~(tcount : int)
    ~(fcount : int) (mask : bool array) (sel : bool array) : unit =
  let tmask = Array.mapi (fun l m -> m && sel.(l)) mask in
  let fmask = Array.mapi (fun l m -> m && not sel.(l)) mask in
  let rpc = db.db_ipdom in
  obs_warp ctx w "warp.diverge"
    [
      ("block", Tr.Str db.db_name);
      ("branch_id", Tr.Str db.db_name);
      ("t_active", Tr.Int tcount);
      ("f_active", Tr.Int fcount);
      ("t_mask", Tr.Str (mask_hex tmask));
      ("f_mask", Tr.Str (mask_hex fmask));
      ( "reconverge",
        Tr.Str (if rpc >= 0 then ctx.fctx.dblocks.(rpc).db_name else "<none>")
      );
    ]

let account (ctx : launch_ctx) (d : dinstr) (fr : frame) : unit =
  let m = ctx.metrics in
  m.cycles <- m.cycles + d.d_lat;
  m.instructions <- m.instructions + 1;
  if fr.origin >= 0 then begin
    (* divergence attribution: this issue runs inside an arm of the
       branch at block [origin]; the split's other-arm lanes idle *)
    ctx.br_cycles.(fr.origin) <- ctx.br_cycles.(fr.origin) + d.d_lat;
    ctx.br_lost.(fr.origin) <-
      ctx.br_lost.(fr.origin) + (fr.f_lost * d.d_lat);
    (* the global counter moves in lock-step with the per-branch one,
       so sum(br_lost_lane_cycles) = lost_lane_cycles exactly *)
    m.lost_lane_cycles <- m.lost_lane_cycles + (fr.f_lost * d.d_lat)
  end;
  if d.d_alu then begin
    m.alu_issues <- m.alu_issues + 1;
    m.alu_active_lanes <- m.alu_active_lanes + fr.f_active
  end;
  if d.d_site >= 0 then begin
    ctx.ms_issues.(d.d_site) <- ctx.ms_issues.(d.d_site) + 1;
    ctx.ms_cycles.(d.d_site) <- ctx.ms_cycles.(d.d_site) + d.d_lat;
    m.mem_cycles <- m.mem_cycles + d.d_lat
  end;
  match d.d_mem with
  | Mc_none -> ()
  | Mc_global -> m.mem_global <- m.mem_global + 1
  | Mc_shared -> m.mem_shared <- m.mem_shared + 1
  | Mc_flat -> m.mem_flat <- m.mem_flat + 1

(* Memory coalescing: a warp-wide global access is served in 32-cell
   transactions; the scan records the distinct segments the active
   lanes touch (rocprof's memory-transaction counters) in first-touch
   order.  Shared accesses instead hit 32 word-interleaved banks,
   serving the warp in 32-lane phases; lanes touching different
   addresses in the same bank serialize, so a phase costs as many
   passes as its worst bank has distinct offsets (bank conflicts).
   Both memory models share this scan, so the coalescing and conflict
   counters are model-independent.  One linear pass over the lanes
   plus an O(bn^2) distinct-offset pass per phase, over pre-allocated
   scratch — no per-issue allocation. *)
let scan_mem (ctx : launch_ctx) (w : warp) (d : dinstr) (mask : bool array) :
    unit =
  let s = ctx.scan in
  let rf = w.rf and pb = d.d_ptr in
  let segs = s.segs and offs = s.bank_offs and cnt = s.bank_count in
  let ws = Array.length mask in
  s.nseg <- 0;
  s.shared_seen <- false;
  s.conflicts <- 0;
  let phase = ref 0 in
  while !phase < ws do
    let bn = ref 0 in
    for lane = !phase to min (ws - 1) (!phase + 31) do
      if Array.unsafe_get mask lane then begin
        let t = tag rf (pb + lane) in
        if t = t_gptr then begin
          let seg = int_cell rf (pb + lane) / 32 in
          (* neighbouring lanes usually share the newest segment *)
          if s.nseg = 0 || segs.(s.nseg - 1) <> seg then begin
            let k = ref 0 in
            while !k < s.nseg && segs.(!k) <> seg do
              incr k
            done;
            if !k = s.nseg then begin
              segs.(s.nseg) <- seg;
              s.nseg <- s.nseg + 1
            end
          end
        end
        else if t = t_sptr then begin
          offs.(!bn) <- int_cell rf (pb + lane);
          incr bn
        end
      end
    done;
    if !bn > 0 then begin
      s.shared_seen <- true;
      let worst = ref 0 in
      for i = 0 to !bn - 1 do
        let o = offs.(i) in
        let j = ref 0 in
        while !j < i && offs.(!j) <> o do
          incr j
        done;
        if !j = i then begin
          let bank = o land 31 in
          cnt.(bank) <- cnt.(bank) + 1;
          if cnt.(bank) > !worst then worst := cnt.(bank)
        end
      done;
      for i = 0 to !bn - 1 do
        cnt.(offs.(i) land 31) <- 0
      done;
      if !worst > 1 then begin
        ctx.metrics.bank_conflicts <- ctx.metrics.bank_conflicts + (!worst - 1);
        ctx.ms_bank_conflicts.(d.d_site) <-
          ctx.ms_bank_conflicts.(d.d_site) + (!worst - 1);
        s.conflicts <- s.conflicts + (!worst - 1)
      end
    end;
    phase := !phase + 32
  done

(* Flat-model transaction accounting, on top of [account]. *)
let account_transactions (ctx : launch_ctx) (w : warp) (d : dinstr)
    (mask : bool array) : unit =
  scan_mem ctx w d mask;
  let nseg = ctx.scan.nseg in
  if nseg > 0 then begin
    ctx.metrics.global_transactions <- ctx.metrics.global_transactions + nseg;
    ctx.metrics.global_accesses <- ctx.metrics.global_accesses + 1;
    ctx.ms_transactions.(d.d_site) <- ctx.ms_transactions.(d.d_site) + nseg;
    ctx.ms_accesses.(d.d_site) <- ctx.ms_accesses.(d.d_site) + 1
  end

(* Hierarchical accounting for one memory issue: replaces [account] +
   [account_transactions] when [cfg.mem_model] is [Hier].  On top of
   the shared coalescing/bank scan, the L1 probe decides the charged
   global latency, each coalesced segment beyond the first serializes at
   [txn_cycles], LDS conflict phases cost [lds_conflict_cycles] each,
   and a miss finding every MSHR slot busy stalls issue until the
   earliest in-flight request completes.  The charged issue latency is
   the slower of the global and LDS paths ([d_lat] when the access
   generated no traffic at all), plus any stall. *)
let account_mem_hier (ctx : launch_ctx) (w : warp) (frame : frame)
    (d : dinstr) (h : hier_state) : unit =
  let m = ctx.metrics in
  let hp = h.hp in
  scan_mem ctx w d frame.mask;
  let segs = ctx.scan.segs and nseg = ctx.scan.nseg in
  (* L1: one probe per coalesced segment; the access counts as a hit
     only when every segment is resident, so [l1_hits + l1_misses]
     counts accesses, not segments. *)
  let all_hit = ref true in
  for s = 0 to nseg - 1 do
    let seg = segs.(s) in
    let base = seg mod hp.l1_sets * hp.l1_ways in
    let way = ref (-1) in
    for wy = 0 to hp.l1_ways - 1 do
      if h.l1_tags.(base + wy) = seg then way := wy
    done;
    h.l1_tick <- h.l1_tick + 1;
    if !way >= 0 then h.l1_lru.(base + !way) <- h.l1_tick
    else begin
      all_hit := false;
      let victim = ref 0 in
      for wy = 1 to hp.l1_ways - 1 do
        if h.l1_lru.(base + wy) < h.l1_lru.(base + !victim) then
          victim := wy
      done;
      h.l1_tags.(base + !victim) <- seg;
      h.l1_lru.(base + !victim) <- h.l1_tick
    end
  done;
  let glat =
    if nseg = 0 then 0
    else
      (if !all_hit then hp.l1_hit_lat else hp.l1_miss_lat)
      + (hp.txn_cycles * (nseg - 1))
  in
  (* MSHR: a missing access occupies the earliest-free slot for its
     global latency; when no slot is free at issue, the warp stalls. *)
  let stall = ref 0 in
  if nseg > 0 && not !all_hit then begin
    let slot = ref 0 in
    for k = 1 to Array.length h.mshr_ready - 1 do
      if h.mshr_ready.(k) < h.mshr_ready.(!slot) then slot := k
    done;
    if h.mshr_ready.(!slot) > m.cycles then
      stall := h.mshr_ready.(!slot) - m.cycles;
    h.mshr_ready.(!slot) <- m.cycles + !stall + glat
  end;
  let bc_cycles = ctx.scan.conflicts * hp.lds_conflict_cycles in
  let slat = (if ctx.scan.shared_seen then d.d_lat else 0) + bc_cycles in
  let lat = max glat slat in
  let lat = if lat = 0 then d.d_lat else lat in
  let charged = !stall + lat in
  m.cycles <- m.cycles + charged;
  m.instructions <- m.instructions + 1;
  if frame.origin >= 0 then begin
    ctx.br_cycles.(frame.origin) <- ctx.br_cycles.(frame.origin) + charged;
    ctx.br_lost.(frame.origin) <-
      ctx.br_lost.(frame.origin) + (frame.f_lost * charged);
    m.lost_lane_cycles <- m.lost_lane_cycles + (frame.f_lost * charged)
  end;
  (match d.d_mem with
  | Mc_none -> ()
  | Mc_global -> m.mem_global <- m.mem_global + 1
  | Mc_shared -> m.mem_shared <- m.mem_shared + 1
  | Mc_flat -> m.mem_flat <- m.mem_flat + 1);
  m.mem_cycles <- m.mem_cycles + charged;
  ctx.ms_issues.(d.d_site) <- ctx.ms_issues.(d.d_site) + 1;
  ctx.ms_cycles.(d.d_site) <- ctx.ms_cycles.(d.d_site) + charged;
  if !stall > 0 then begin
    m.mem_stall_cycles <- m.mem_stall_cycles + !stall;
    ctx.ms_stall_cycles.(d.d_site) <-
      ctx.ms_stall_cycles.(d.d_site) + !stall
  end;
  if bc_cycles > 0 then begin
    m.bank_conflict_cycles <- m.bank_conflict_cycles + bc_cycles;
    ctx.ms_bank_conflict_cycles.(d.d_site) <-
      ctx.ms_bank_conflict_cycles.(d.d_site) + bc_cycles
  end;
  if nseg > 0 then begin
    m.global_transactions <- m.global_transactions + nseg;
    m.global_accesses <- m.global_accesses + 1;
    ctx.ms_transactions.(d.d_site) <- ctx.ms_transactions.(d.d_site) + nseg;
    ctx.ms_accesses.(d.d_site) <- ctx.ms_accesses.(d.d_site) + 1;
    if !all_hit then begin
      m.l1_hits <- m.l1_hits + 1;
      ctx.ms_l1_hits.(d.d_site) <- ctx.ms_l1_hits.(d.d_site) + 1
    end
    else begin
      m.l1_misses <- m.l1_misses + 1;
      ctx.ms_l1_misses.(d.d_site) <- ctx.ms_l1_misses.(d.d_site) + 1
    end;
    match ctx.cfg.obs with
    | None -> ()
    | Some tr ->
        let inflight = ref 0 in
        for k = 0 to Array.length h.mshr_ready - 1 do
          if h.mshr_ready.(k) > m.cycles then incr inflight
        done;
        Tr.counter tr ~cat:"sim" ~pid:ctx.cfg.obs_pid ~tid:0 ~ts:m.cycles
          "mem.inflight"
          (float_of_int !inflight)
  end

(* ------------------------------------------------------------------ *)
(* Instruction execution — shared by both reconvergence models *)

(** Execute all phis of the block simultaneously (two-phase read/commit)
    for the lanes of [mask], staging into the context's pre-allocated
    buffers. *)
let exec_phis (ctx : launch_ctx) (w : warp) (mask : bool array) (db : dblock)
    : unit =
  let nphis = Array.length db.db_phis in
  if nphis > 0 then begin
    let ws = Array.length mask in
    let rf = w.rf and stage = ctx.phi_stage in
    for pi = 0 to nphis - 1 do
      let p = db.db_phis.(pi) in
      let sb = pi * ws in
      for lane = 0 to ws - 1 do
        if mask.(lane) then begin
          let pred = w.pred.(lane) in
          if pred < 0 then set_undef stage (sb + lane)
          else
            let s = p.p_inc.(pred) in
            if s < 0 then
              errf "phi in %s has no incoming for pred %s" db.db_name
                ctx.fctx.dblocks.(pred).db_name
            else copy_cell rf (s + lane) stage (sb + lane)
        end
      done
    done;
    for pi = 0 to nphis - 1 do
      let sb = pi * ws and o = db.db_phis.(pi).p_slot in
      for lane = 0 to ws - 1 do
        if mask.(lane) then copy_cell stage (sb + lane) rf (o + lane)
      done
    done
  end

(** Issue one [K_exec] instruction for the lanes of [fr]: charge it
    under the configured memory model, then run its lane executor. *)
let issue (ctx : launch_ctx) (w : warp) (fr : frame) (d : dinstr) : unit =
  (match ctx.hier with
  | Some h when d.d_mem <> Mc_none -> account_mem_hier ctx w fr d h
  | _ ->
      account ctx d fr;
      if d.d_mem <> Mc_none then account_transactions ctx w d fr.mask);
  d.d_exec ctx.env w fr.mask

let set_pred_for_mask (w : warp) (mask : bool array) (bi : int) : unit =
  for lane = 0 to Array.length mask - 1 do
    if mask.(lane) then w.pred.(lane) <- bi
  done

(** Evaluate a condbr's condition for the lanes of [mask] into
    [ctx.cond_sel]; returns how many of them take the true edge. *)
let eval_cond (ctx : launch_ctx) (w : warp) (d : dinstr) (mask : bool array)
    : int =
  let rf = w.rf and cond = d.d_src.(0) and sel = ctx.cond_sel in
  let t = ref 0 in
  for lane = 0 to Array.length mask - 1 do
    if mask.(lane) then begin
      let c = bool_at "condbr" rf (cond + lane) in
      sel.(lane) <- c;
      if c then incr t
    end
  done;
  !t

(* ------------------------------------------------------------------ *)
(* SIMT stack *)

(** Execute the terminator of the top frame, updating the stack. *)
let exec_terminator (ctx : launch_ctx) (w : warp) (frame : frame)
    (d : dinstr) (db : dblock) : unit =
  account ctx d frame;
  match d.d_kind with
  | K_ret -> w.stack <- List.tl w.stack
  | K_br ->
      set_pred_for_mask w frame.mask frame.pc;
      frame.pc <- d.d_succ.(0);
      frame.ip <- 0
  | K_condbr ->
      let ws = ctx.cfg.warp_size in
      let tcount = eval_cond ctx w d frame.mask in
      let fcount = frame.f_active - tcount in
      let cur = frame.pc in
      set_pred_for_mask w frame.mask cur;
      if fcount = 0 || tcount = 0 then begin
        frame.pc <- d.d_succ.(if fcount = 0 then 0 else 1);
        frame.ip <- 0
      end
      else begin
        (* the warp splits: IPDOM reconvergence *)
        ctx.metrics.divergent_branches <- ctx.metrics.divergent_branches + 1;
        ctx.br_div.(cur) <- ctx.br_div.(cur) + 1;
        let sel = ctx.cond_sel in
        let tmask = Array.make ws false in
        let fmask = Array.make ws false in
        for lane = 0 to ws - 1 do
          if frame.mask.(lane) then
            if sel.(lane) then tmask.(lane) <- true else fmask.(lane) <- true
        done;
        if observing ctx then
          obs_diverge ctx w db ~tcount ~fcount frame.mask sel;
        let rpc = db.db_ipdom in
        let t_frame =
          { pc = d.d_succ.(0); ip = 0; rpc; mask = tmask; origin = cur;
            f_lost = fcount; f_active = tcount }
        in
        let f_frame =
          { pc = d.d_succ.(1); ip = 0; rpc; mask = fmask; origin = cur;
            f_lost = tcount; f_active = fcount }
        in
        if rpc >= 0 then begin
          frame.pc <- rpc;
          frame.ip <- 0;
          w.stack <- t_frame :: f_frame :: w.stack
        end
        else
          (* no reconvergence point: both arms run to completion *)
          w.stack <- t_frame :: f_frame :: List.tl w.stack
      end
  | K_exec | K_sync -> errf "exec_terminator: not a terminator"

(** Run the warp until it finishes or reaches a barrier. *)
let run_warp (ctx : launch_ctx) (w : warp) : unit =
  let dbs = ctx.fctx.dblocks in
  let budget = ref ctx.cfg.max_cycles_per_warp in
  let continue_ = ref true in
  while !continue_ do
    if !budget <= 0 then errf "cycle budget exhausted (runaway loop?)";
    match w.stack with
    | [] ->
        w.status <- Finished;
        continue_ := false
    | frame :: rest ->
        if frame.rpc >= 0 && frame.rpc = frame.pc then begin
          (* reconverged: drop the frame, the parent resumes at rpc *)
          ctx.metrics.reconvergences <- ctx.metrics.reconvergences + 1;
          if frame.origin >= 0 then
            ctx.br_reconv.(frame.origin) <- ctx.br_reconv.(frame.origin) + 1;
          if observing ctx then
            obs_warp ctx w "warp.reconverge"
              [
                ("block", Tr.Str dbs.(frame.pc).db_name);
                ( "branch_id",
                  Tr.Str
                    (if frame.origin >= 0 then dbs.(frame.origin).db_name
                     else "<entry>") );
                ("active", Tr.Int frame.f_active);
                ("mask", Tr.Str (mask_hex frame.mask));
              ];
          w.stack <- rest
        end
        else begin
          let db = dbs.(frame.pc) in
          if frame.ip = 0 then exec_phis ctx w frame.mask db;
          (* execute from the resume index *)
          let code = db.db_code in
          let n = Array.length code in
          let k = ref frame.ip in
          let stop = ref false in
          while not !stop do
            if !k >= n then errf "block %s has no terminator" db.db_name;
            let d = Array.unsafe_get code !k in
            match d.d_kind with
            | K_exec ->
                issue ctx w frame d;
                decr budget;
                incr k
            | K_sync ->
                account ctx d frame;
                ctx.metrics.barriers <- ctx.metrics.barriers + 1;
                if observing ctx then
                  obs_warp ctx w "warp.barrier"
                    [
                      ("block", Tr.Str db.db_name);
                      ("active", Tr.Int frame.f_active);
                    ];
                (match w.stack with
                | _ :: _ :: _ -> errf "syncthreads in divergent control flow"
                | _ -> ());
                frame.ip <- !k + 1;
                w.status <- At_barrier;
                stop := true
            | K_br | K_condbr | K_ret ->
                exec_terminator ctx w frame d db;
                decr budget;
                stop := true
          done;
          if w.status = At_barrier then continue_ := false
        end
  done

(* ------------------------------------------------------------------ *)
(* Independent thread scheduling (ITS).

   Every lane carries its own PC, instruction index and run state; the
   warp scheduler repeatedly picks the runnable group of lanes sharing
   the lexicographically minimal (pc, ip) — MinPC — and issues one
   instruction for that group.  Lanes reconverge opportunistically when
   their PCs coincide; with [its_reconv_wait] a lane reaching a split's
   reconvergence point additionally parks until its sibling lanes
   arrive (the convergence-optimizer barrier), which restores maximal
   convergence on structured code.  Liveness is unconditional: whenever
   no lane of the warp is runnable, every parked lane is released, so
   siblings stuck at a [syncthreads] or exited via [ret] can never
   wedge the warp — [syncthreads] stays deadlock-free under divergence,
   where the SIMT stack model must reject it.

   Divergence attribution reuses the stack model's machinery: each
   issue goes through a scratch [frame] whose [origin] is the issuing
   group leader's innermost open split and whose [f_lost] counts the
   warp's other non-retired lanes, so [account] / [account_mem_hier]
   feed the same per-branch and global lost-lane counters and the
   exact-sum identities hold under both models.

   Cost per issue is O(warp size): one pass for the pending
   reconvergence pops (skipped when no lane can have one), one for the
   run/wait counts and the MinPC leader, one for the group mask and the
   per-lane budget, then the lane executor.  Whether other lanes are
   still inside a split is an O(1) lookup in a per-origin holder
   count. *)

type lane_status =
  | L_run
  | L_wait  (** parked at a reconvergence point for sibling lanes *)
  | L_barrier  (** parked at [syncthreads] *)
  | L_done

(** Per-lane scheduling state of one warp under ITS. *)
type its_warp = {
  iw_pc : int array;  (** per-lane dense block index *)
  iw_ip : int array;  (** per-lane index into [db_code] *)
  iw_stat : lane_status array;
  iw_div : int list array;
      (** open splits, innermost first, as the dense index of the
          branch block that split the warp; each pops when the lane
          reaches that block's IPDOM.  Mirrors the stack model's frame
          nesting; a lane may hold one split several times (a divergent
          loop exit) *)
  iw_wait : int array;  (** the split an [L_wait] lane is parked on *)
  iw_holders : int array;
      (** per branch block: non-retired lanes holding at least one
          entry of that split *)
  iw_budget : int array;  (** per-lane runaway-loop guard *)
}

let make_its_warp (cfg : config) ~(live : int) ~(nblocks : int) : its_warp =
  let ws = cfg.warp_size in
  {
    iw_pc = Array.make ws 0;
    iw_ip = Array.make ws 0;
    iw_stat = Array.init ws (fun l -> if l < live then L_run else L_done);
    iw_div = Array.make ws [];
    iw_wait = Array.make ws (-1);
    iw_holders = Array.make nblocks 0;
    iw_budget = Array.make ws cfg.max_cycles_per_warp;
  }

let rec holds (o : int) = function [] -> false | x :: r -> x = o || holds o r

(** Run one warp under ITS until every lane is retired or parked at a
    barrier. *)
let run_warp_its (ctx : launch_ctx) (p : its_params) (w : warp)
    (iw : its_warp) : unit =
  let ws = ctx.cfg.warp_size in
  let dbs = ctx.fctx.dblocks in
  let m = ctx.metrics in
  let stat = iw.iw_stat and pcs = iw.iw_pc and ips = iw.iw_ip in
  let holders = iw.iw_holders in
  let gmask = Array.make ws false in
  let fr =
    { pc = 0; ip = 0; rpc = -1; mask = gmask; origin = -1; f_lost = 0;
      f_active = 0 }
  in
  (* some L_run lane at a block entry may have a split to pop: set when
     lanes arrive at a block or are released from a wait, and when the
     warp (re)starts after a barrier *)
  let pops_due = ref true in
  (* wake every lane parked on split [o] — it has fully drained (or the
     warp would otherwise stall) *)
  let wake o =
    pops_due := true;
    for l = 0 to ws - 1 do
      if stat.(l) = L_wait && iw.iw_wait.(l) = o then begin
        stat.(l) <- L_run;
        iw.iw_wait.(l) <- -1
      end
    done
  in
  let reconverge_event o r =
    m.reconvergences <- m.reconvergences + 1;
    ctx.br_reconv.(o) <- ctx.br_reconv.(o) + 1;
    if observing ctx then begin
      let joined = Array.init ws (fun l -> stat.(l) <> L_done && pcs.(l) = r) in
      obs_warp ctx w "warp.reconverge"
        [
          ("block", Tr.Str dbs.(r).db_name);
          ("branch_id", Tr.Str dbs.(o).db_name);
          ("active", Tr.Int (popcount joined));
          ("mask", Tr.Str (mask_hex joined));
        ]
    end
  in
  (* at a block entry, pop every open split whose reconvergence point
     is this block; with [its_reconv_wait] park for straggling siblings *)
  let process_pops lane =
    let continue_ = ref true in
    while !continue_ && stat.(lane) = L_run do
      match iw.iw_div.(lane) with
      | o :: rest when dbs.(o).db_ipdom = pcs.(lane) ->
          iw.iw_div.(lane) <- rest;
          let still = holds o rest in
          if not still then holders.(o) <- holders.(o) - 1;
          let others = if still then holders.(o) - 1 else holders.(o) in
          if others = 0 then begin
            (* last lane out of the split: this is the reconvergence *)
            reconverge_event o pcs.(lane);
            wake o
          end
          else if p.its_reconv_wait then begin
            stat.(lane) <- L_wait;
            iw.iw_wait.(lane) <- o
          end
      | _ -> continue_ := false
    done
  in
  (* a retiring lane drops out of every split it still holds *)
  let rec release_splits = function
    | [] -> ()
    | o :: rest ->
        if not (holds o rest) then holders.(o) <- holders.(o) - 1;
        release_splits rest
  in
  let arrive lane bi =
    pcs.(lane) <- bi;
    ips.(lane) <- 0
  in
  let running = ref true in
  while !running do
    (* reconvergence pops happen at block entry, before any issue (also
       covers lanes re-checked after a wake) *)
    if !pops_due then begin
      pops_due := false;
      for l = 0 to ws - 1 do
        if stat.(l) = L_run && ips.(l) = 0 then process_pops l
      done
    end;
    (* run/wait counts and the MinPC leader: the lowest lane of the
       runnable group with the minimal (pc, ip) *)
    let nrun = ref 0 and nwait = ref 0 in
    let leader = ref (-1) and pc = ref max_int and ip = ref max_int in
    for l = 0 to ws - 1 do
      match stat.(l) with
      | L_run ->
          incr nrun;
          let lpc = pcs.(l) in
          if lpc < !pc || (lpc = !pc && ips.(l) < !ip) then begin
            leader := l;
            pc := lpc;
            ip := ips.(l)
          end
      | L_wait -> incr nwait
      | L_barrier | L_done -> ()
    done;
    if !nrun = 0 then begin
      if !nwait > 0 then begin
        (* liveness backstop: no runnable lane — release every parked
           lane (its sibling lanes are at a barrier, retired, or parked
           themselves; the reconvergence-point wait must yield) *)
        pops_due := true;
        for l = 0 to ws - 1 do
          if stat.(l) = L_wait then begin
            stat.(l) <- L_run;
            iw.iw_wait.(l) <- -1
          end
        done
      end
      else running := false
    end
    else begin
      let pc = !pc and ip0 = !ip in
      (* the issuing group, charging each member's budget; a lane out
         of budget is reported once the group is otherwise set up.
         [minb]/[minl]: the group's lowest remaining budget and its
         lowest lane *)
      let gsize = ref 0 and exhausted = ref (-1) in
      let minb = ref max_int and minl = ref (-1) in
      for l = 0 to ws - 1 do
        let in_group = stat.(l) = L_run && pcs.(l) = pc && ips.(l) = ip0 in
        gmask.(l) <- in_group;
        if in_group then begin
          incr gsize;
          let b = iw.iw_budget.(l) in
          if b <= 0 && !exhausted < 0 then exhausted := l;
          iw.iw_budget.(l) <- b - 1;
          if b - 1 < !minb then begin
            minb := b - 1;
            minl := l
          end
        end
      done;
      let gsize = !gsize in
      let db = dbs.(pc) in
      let code = db.db_code in
      if ip0 >= Array.length code then
        errf "block %s has no terminator" db.db_name;
      (* attribution: the group leader's innermost open split wins (the
         stack model's innermost-frame rule); the split's cost in idle
         lanes is every live lane the group leaves behind *)
      fr.origin <- (match iw.iw_div.(!leader) with o :: _ -> o | [] -> -1);
      fr.f_lost <- !nrun + !nwait - gsize;
      fr.f_active <- gsize;
      if ip0 = 0 then exec_phis ctx w gmask db;
      if !exhausted >= 0 then
        errf "cycle budget exhausted in lane %d (runaway loop?)"
          (w.tid_base + !exhausted);
      (* Unless a wake left pops pending, the group issues straight on
         to the block's barrier or terminator without rescanning: MinPC
         would pick it again at every one of these instructions, since
         issuing changes no other lane, and it cannot meet another lane
         on the way — a runnable lane sits mid-block only just past a
         [syncthreads] that released it, and the group stops at that
         barrier first.  The [extra] issues are charged to the members'
         budgets at the end.  With pops pending, the next step's pops
         may park or reconverge lanes, so the group issues once. *)
      let straight = not !pops_due in
      let ip = ref ip0 and extra = ref 0 and more = ref true in
      while !more do
        let d = Array.unsafe_get code !ip in
        match d.d_kind with
        | K_exec ->
            issue ctx w fr d;
            incr ip;
            if straight then begin
              if !ip >= Array.length code then
                errf "block %s has no terminator" db.db_name;
              if !extra >= !minb then
                errf "cycle budget exhausted in lane %d (runaway loop?)"
                  (w.tid_base + !minl);
              incr extra
            end
            else begin
              for l = 0 to ws - 1 do
                if gmask.(l) then ips.(l) <- !ip
              done;
              more := false
            end
        | K_sync ->
            more := false;
            account ctx d fr;
            m.barriers <- m.barriers + 1;
            if observing ctx then
              obs_warp ctx w "warp.barrier"
                [ ("block", Tr.Str db.db_name); ("active", Tr.Int gsize) ];
            for l = 0 to ws - 1 do
              if gmask.(l) then begin
                stat.(l) <- L_barrier;
                ips.(l) <- !ip + 1
              end
            done
        | K_ret ->
            more := false;
            account ctx d fr;
            for l = 0 to ws - 1 do
              if gmask.(l) then begin
                stat.(l) <- L_done;
                release_splits iw.iw_div.(l);
                iw.iw_div.(l) <- []
              end
            done
        | K_br ->
            more := false;
            account ctx d fr;
            set_pred_for_mask w gmask pc;
            pops_due := true;
            for l = 0 to ws - 1 do
              if gmask.(l) then arrive l d.d_succ.(0)
            done
        | K_condbr ->
            more := false;
            account ctx d fr;
            let tcount = eval_cond ctx w d gmask in
            let fcount = gsize - tcount in
            set_pred_for_mask w gmask pc;
            pops_due := true;
            if fcount = 0 || tcount = 0 then begin
              let succ = d.d_succ.(if fcount = 0 then 0 else 1) in
              for l = 0 to ws - 1 do
                if gmask.(l) then arrive l succ
              done
            end
            else begin
              (* the group splits: open a per-lane divergence entry;
                 lanes rejoin at the IPDOM (or opportunistically
                 earlier when their PCs coincide) *)
              m.divergent_branches <- m.divergent_branches + 1;
              ctx.br_div.(pc) <- ctx.br_div.(pc) + 1;
              let sel = ctx.cond_sel in
              if observing ctx then
                obs_diverge ctx w db ~tcount ~fcount gmask sel;
              for l = 0 to ws - 1 do
                if gmask.(l) then begin
                  if not (holds pc iw.iw_div.(l)) then
                    holders.(pc) <- holders.(pc) + 1;
                  iw.iw_div.(l) <- pc :: iw.iw_div.(l);
                  arrive l d.d_succ.(if sel.(l) then 0 else 1)
                end
              done
            end
      done;
      if !extra > 0 then
        for l = 0 to ws - 1 do
          if gmask.(l) then iw.iw_budget.(l) <- iw.iw_budget.(l) - !extra
        done
    end
  done;
  w.status <-
    (if Array.for_all (fun s -> s = L_done) stat then Finished else At_barrier)

(* ------------------------------------------------------------------ *)
(* Grid launch *)

type launch = { grid_dim : int; block_dim : int }

(** [run ?config fn ~args ~global launch] executes the kernel over the
    whole grid and returns the collected metrics.  [args] bind the
    function parameters positionally. *)
let run ?(config = default_config) (fn : func) ~(args : rv array)
    ~(global : Memory.t) (launch : launch) : Metrics.t =
  let fctx = prepare config fn ~args in
  let metrics = Metrics.create () in
  let ws = config.warp_size in
  (* scratch buffers live across the whole grid: blocks (and the warps
     within a block) execute sequentially on this domain *)
  let scan =
    {
      segs = Array.make ws 0;
      nseg = 0;
      shared_seen = false;
      conflicts = 0;
      bank_offs = Array.make 32 0;
      bank_count = Array.make 32 0;
    }
  in
  let phi_stage = make_regfile (max fctx.max_phis 1 * ws) in
  let cond_sel = Array.make ws false in
  let nblocks = Array.length fctx.dblocks in
  let br_div = Array.make nblocks 0 in
  let br_cycles = Array.make nblocks 0 in
  let br_lost = Array.make nblocks 0 in
  let br_reconv = Array.make nblocks 0 in
  let nsites = Array.length fctx.sites in
  let msa () = Array.make (max 1 nsites) 0 in
  let ms_issues = msa () in
  let ms_accesses = msa () in
  let ms_transactions = msa () in
  let ms_l1_hits = msa () in
  let ms_l1_misses = msa () in
  let ms_bank_conflicts = msa () in
  let ms_bank_conflict_cycles = msa () in
  let ms_stall_cycles = msa () in
  let ms_cycles = msa () in
  let hier =
    match config.mem_model with
    | Flat -> None
    | Hier hp -> Some (make_hier_state hp)
  in
  (* one register file per warp index for the whole grid, constants and
     arguments written once; each block only marks the instruction
     slots undef again *)
  let nwarps = (launch.block_dim + ws - 1) / ws in
  let inst_cells = fctx.nslots * ws in
  let files =
    Array.init nwarps (fun _ ->
        let rf =
          make_regfile (inst_cells + (Array.length fctx.consts * ws))
        in
        Array.iteri
          (fun k v ->
            for lane = 0 to ws - 1 do
              set_rv rf (inst_cells + (k * ws) + lane) v
            done)
          fctx.consts;
        rf)
  in
  for block_idx = 0 to launch.grid_dim - 1 do
    let cycles_before = metrics.cycles in
    (match hier with
    | Some h -> reset_hier_state h
    | None -> ());
    (match config.obs with
    | None -> ()
    | Some tr ->
        Tr.begin_span tr ~cat:"sim" ~pid:config.obs_pid ~tid:0
          ~ts:metrics.cycles
          ~args:[ ("block_idx", Tr.Int block_idx) ]
          "block");
    let shared =
      Memory.create ~space:Sp_shared (max fctx.shared_size 1)
    in
    let ctx =
      {
        cfg = config;
        fctx;
        env =
          {
            global;
            shared;
            block_idx;
            block_dim = launch.block_dim;
            grid_dim = launch.grid_dim;
          };
        metrics;
        scan;
        phi_stage;
        cond_sel;
        br_div;
        br_cycles;
        br_lost;
        br_reconv;
        ms_issues;
        ms_accesses;
        ms_transactions;
        ms_l1_hits;
        ms_l1_misses;
        ms_bank_conflicts;
        ms_bank_conflict_cycles;
        ms_stall_cycles;
        ms_cycles;
        hier;
      }
    in
    let warps =
      Array.init nwarps (fun wi ->
          let tid_base = wi * ws in
          let live = min ws (launch.block_dim - tid_base) in
          let mask = Array.init ws (fun l -> l < live) in
          let rf = files.(wi) in
          Bytes.fill rf.tags 0 inst_cells t_undef;
          {
            tid_base;
            rf;
            pred = Array.make ws (-1);
            stack =
              [
                { pc = 0; ip = 0; rpc = -1; mask; origin = -1; f_lost = 0;
                  f_active = live };
              ];
            status = Running;
          })
    in
    (* per-lane scheduling state, allocated only under ITS *)
    let its_p =
      match config.reconvergence with Stack -> None | Its p -> Some p
    in
    let its_warps =
      match its_p with
      | None -> [||]
      | Some _ ->
          Array.init nwarps (fun wi ->
              let live = min ws (launch.block_dim - (wi * ws)) in
              make_its_warp config ~live ~nblocks)
    in
    (* phase execution: run every warp to its next barrier or the end;
       release the barrier when all non-finished warps have reached it *)
    let all_done () =
      Array.for_all (fun w -> w.status = Finished) warps
    in
    let guard = ref 0 in
    while not (all_done ()) do
      incr guard;
      if !guard > 1_000_000 then errf "barrier deadlock";
      Array.iteri
        (fun wi w ->
          if w.status = Running then
            match its_p with
            | None -> run_warp ctx w
            | Some p -> run_warp_its ctx p w its_warps.(wi))
        warps;
      (* all running warps have now either finished or hit a barrier *)
      let at_barrier =
        Array.exists (fun w -> w.status = At_barrier) warps
      in
      if at_barrier then
        Array.iteri
          (fun wi w ->
            if w.status = At_barrier then begin
              w.status <- Running;
              match its_p with
              | None -> ()
              | Some _ ->
                  let iw = its_warps.(wi) in
                  for l = 0 to ws - 1 do
                    if iw.iw_stat.(l) = L_barrier then
                      iw.iw_stat.(l) <- L_run
                  done
            end)
          warps
    done;
    (* CONTRACT: block_cycles is kept most-recent-block-first; see
       {!Metrics.t} *)
    metrics.block_cycles <-
      (metrics.cycles - cycles_before) :: metrics.block_cycles;
    match config.obs with
    | None -> ()
    | Some tr ->
        Tr.end_span tr ~cat:"sim" ~pid:config.obs_pid ~tid:0 ~ts:metrics.cycles
          "block";
        Tr.counter tr ~cat:"sim" ~pid:config.obs_pid ~tid:0 ~ts:metrics.cycles
          "block.cycles"
          (float_of_int (metrics.cycles - cycles_before));
        (* cumulative L1 hit rate, one sample per block boundary *)
        if hier <> None then
          Tr.counter tr ~cat:"sim" ~pid:config.obs_pid ~tid:0
            ~ts:metrics.cycles "mem.l1_hit_rate"
            (Metrics.l1_hit_rate metrics)
  done;
  (* fold the dense attribution arrays into the metrics, keyed by the
     stable static branch id (the branch block's name) *)
  for bi = 0 to nblocks - 1 do
    if br_div.(bi) > 0 || br_cycles.(bi) > 0 || br_reconv.(bi) > 0 then begin
      let s = Metrics.touch_branch metrics fctx.dblocks.(bi).db_name in
      s.Metrics.br_divergences <- s.Metrics.br_divergences + br_div.(bi);
      s.Metrics.br_cycles <- s.Metrics.br_cycles + br_cycles.(bi);
      s.Metrics.br_lost_lane_cycles <-
        s.Metrics.br_lost_lane_cycles + br_lost.(bi);
      s.Metrics.br_reconvergences <-
        s.Metrics.br_reconvergences + br_reconv.(bi)
    end
  done;
  (* likewise for the per-site memory attribution, keyed by the stable
     "<block>#<k>" access-site id *)
  for si = 0 to nsites - 1 do
    if ms_issues.(si) > 0 then begin
      let s = Metrics.touch_site metrics fctx.sites.(si) in
      s.Metrics.ms_issues <- s.Metrics.ms_issues + ms_issues.(si);
      s.Metrics.ms_accesses <- s.Metrics.ms_accesses + ms_accesses.(si);
      s.Metrics.ms_transactions <-
        s.Metrics.ms_transactions + ms_transactions.(si);
      s.Metrics.ms_l1_hits <- s.Metrics.ms_l1_hits + ms_l1_hits.(si);
      s.Metrics.ms_l1_misses <- s.Metrics.ms_l1_misses + ms_l1_misses.(si);
      s.Metrics.ms_bank_conflicts <-
        s.Metrics.ms_bank_conflicts + ms_bank_conflicts.(si);
      s.Metrics.ms_bank_conflict_cycles <-
        s.Metrics.ms_bank_conflict_cycles + ms_bank_conflict_cycles.(si);
      s.Metrics.ms_stall_cycles <-
        s.Metrics.ms_stall_cycles + ms_stall_cycles.(si);
      s.Metrics.ms_cycles <- s.Metrics.ms_cycles + ms_cycles.(si)
    end
  done;
  metrics
