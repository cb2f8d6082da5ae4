(** Feature-flagged structured kernel generator.  See the interface for
    the race-freedom discipline that makes the oracle sound. *)

open Darm_ir
module Memory = Darm_sim.Memory
module Kernel = Darm_kernels.Kernel
module D = Dsl

type features = {
  loops_uniform : bool;
  loops_divergent : bool;
  barriers : bool;
  shared_tile : bool;
  nested_diamonds : bool;
  switch_ladders : bool;
}

let all_features =
  {
    loops_uniform = true;
    loops_divergent = true;
    barriers = true;
    shared_tile = true;
    nested_diamonds = true;
    switch_ladders = true;
  }

let no_features =
  {
    loops_uniform = false;
    loops_divergent = false;
    barriers = false;
    shared_tile = false;
    nested_diamonds = false;
    switch_ladders = false;
  }

let feature_names =
  [
    ("loops-uniform", (fun f -> f.loops_uniform),
     fun f -> { f with loops_uniform = true });
    ("loops-divergent", (fun f -> f.loops_divergent),
     fun f -> { f with loops_divergent = true });
    ("barriers", (fun f -> f.barriers), fun f -> { f with barriers = true });
    ("shared-tile", (fun f -> f.shared_tile),
     fun f -> { f with shared_tile = true });
    ("nested-diamonds", (fun f -> f.nested_diamonds),
     fun f -> { f with nested_diamonds = true });
    ("switch-ladders", (fun f -> f.switch_ladders),
     fun f -> { f with switch_ladders = true });
  ]

let features_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "all" -> Ok all_features
  | "none" -> Ok no_features
  | spec ->
      let parts =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun p -> p <> "")
      in
      List.fold_left
        (fun acc part ->
          match acc with
          | Error _ as e -> e
          | Ok f -> (
              match
                List.find_opt (fun (n, _, _) -> n = part) feature_names
              with
              | Some (_, _, set) -> Ok (set f)
              | None ->
                  Error
                    (Printf.sprintf
                       "unknown feature %s (expected all, none, or a comma \
                        list of %s)"
                       part
                       (String.concat ", "
                          (List.map (fun (n, _, _) -> n) feature_names)))))
        (Ok no_features) parts

let features_to_string f =
  match
    List.filter_map
      (fun (n, get, _) -> if get f then Some n else None)
      feature_names
  with
  | [] -> "none"
  | names when List.length names = List.length feature_names -> "all"
  | names -> String.concat "," names

type cfg = {
  max_depth : int;
  stmts_per_block : int;
  array_size : int;
  features : features;
}

let default_cfg =
  { max_depth = 3; stmts_per_block = 3; array_size = 128;
    features = all_features }

let smoke_cfg = { default_cfg with max_depth = 2; stmts_per_block = 2 }

let cfg_of ~smoke ~features =
  Result.map
    (fun features ->
      { (if smoke then smoke_cfg else default_cfg) with features })
    (features_of_string features)

type gen_state = {
  rng : Random.State.t;
  ctx : D.ctx;
  cfg : cfg;
  vars : D.var array;          (** mutable integer locals *)
  ro_arrays : Ssa.value array; (** read-only outside barrier phases *)
  shared : Ssa.value option;   (** the shared tile, when enabled *)
  own_cell : Ssa.value;        (** this thread's private output cell *)
  mask : Ssa.value;            (** array_size - 1 *)
  gid : Ssa.value;
  tid : Ssa.value;
}

let pick g (choices : 'a array) : 'a =
  choices.(Random.State.int g.rng (Array.length choices))

let rand g n = Random.State.int g.rng n

(* a random pure i32 expression over the current variable pool; only
   reads race-free locations (read-only arrays and the own cell) *)
let rec gen_expr g (depth : int) : Ssa.value =
  let leaf () =
    match rand g 5 with
    | 0 -> D.i32 (rand g 64)
    | 1 -> g.gid
    | 2 -> g.tid
    | 3 -> D.get g.ctx (pick g g.vars)
    | _ -> (
        match rand g 3 with
        | 0 -> D.load g.ctx g.own_cell
        | _ ->
            let arr = pick g g.ro_arrays in
            let idx = D.and_ g.ctx (D.get g.ctx (pick g g.vars)) g.mask in
            D.load g.ctx (D.gep g.ctx arr idx))
  in
  if depth = 0 then leaf ()
  else
    match rand g 9 with
    | 0 -> D.add g.ctx (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 1 -> D.sub g.ctx (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 2 -> D.mul g.ctx (gen_expr g (depth - 1)) (D.i32 (1 + rand g 7))
    | 3 -> D.xor g.ctx (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 4 -> D.and_ g.ctx (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 5 -> D.smin g.ctx (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 6 -> D.smax g.ctx (gen_expr g (depth - 1)) (gen_expr g (depth - 1))
    | 7 ->
        D.select g.ctx (gen_cond g)
          (gen_expr g (depth - 1))
          (gen_expr g (depth - 1))
    | _ -> leaf ()

and gen_cond g : Ssa.value =
  let a = gen_expr g 1 and b = gen_expr g 1 in
  match rand g 4 with
  | 0 -> D.slt g.ctx a b
  | 1 -> D.sle g.ctx a b
  | 2 -> D.eq g.ctx (D.and_ g.ctx a (D.i32 3)) (D.i32 (rand g 4))
  | _ -> D.sgt g.ctx a b

let gen_store g = D.store g.ctx (gen_expr g 2) g.own_cell

(* A barrier-fenced shared write phase: the stored value is computed
   before the first barrier (so its tile reads stay in a write-free
   interval), then every thread stores only its own tile cell between
   two block-uniform barriers.  Optionally guarded by a block-uniform
   condition over the block index — the "correctly-guarded syncthreads"
   shape (all threads of a block agree, so the barrier stays uniform
   even though it sits under a branch). *)
let barrier_phase g =
  let phase () =
    match g.shared with
    | Some s ->
        let v = gen_expr g 2 in
        let idx = D.and_ g.ctx g.tid g.mask in
        D.sync g.ctx;
        D.store g.ctx v (D.gep g.ctx s idx);
        D.sync g.ctx
    | None -> D.sync g.ctx
  in
  if rand g 3 = 0 then
    let guard =
      D.eq g.ctx
        (D.and_ g.ctx (D.bid g.ctx) (D.i32 1))
        (D.i32 (rand g 2))
    in
    D.if_then g.ctx guard phase
  else phase ()

(* [uniform] tracks whether the current insertion point is reached by
   all threads of the block in lockstep — barriers may only be emitted
   there. *)
let rec gen_stmt g ~(uniform : bool) (depth : int) =
  let f = g.cfg.features in
  let simple =
    [|
      (fun () -> D.set g.ctx (pick g g.vars) (gen_expr g 2));
      (fun () -> gen_store g);
    |]
  in
  let structured =
    if depth <= 0 then [||]
    else
      Array.of_list
        (List.concat
           [
             [
               (fun () ->
                 (* divergent diamond: similar shapes on both sides feed
                    the melder *)
                 D.if_ g.ctx (gen_cond g)
                   (fun () -> gen_block g ~uniform:false (depth - 1))
                   (fun () -> gen_block g ~uniform:false (depth - 1)));
               (fun () ->
                 D.if_then g.ctx (gen_cond g) (fun () ->
                     gen_block g ~uniform:false (depth - 1)));
             ];
             (if f.nested_diamonds && depth > 1 then
                [
                  (fun () ->
                    (* forced nesting: a diamond directly inside each arm *)
                    let inner () =
                      D.if_ g.ctx (gen_cond g)
                        (fun () -> gen_block g ~uniform:false (depth - 2))
                        (fun () -> gen_block g ~uniform:false (depth - 2))
                    in
                    D.if_ g.ctx (gen_cond g)
                      (fun () -> gen_store g; inner ())
                      (fun () -> inner (); gen_store g));
                  (fun () ->
                    (* sequential diamonds at the same nesting level *)
                    for _ = 1 to 2 do
                      D.if_ g.ctx (gen_cond g)
                        (fun () -> gen_block g ~uniform:false (depth - 1))
                        (fun () -> gen_block g ~uniform:false (depth - 1))
                    done);
                ]
              else []);
             (if f.switch_ladders then
                [
                  (fun () ->
                    (* 4-way ladder on a small selector, the switch
                       lowering shape *)
                    let sel = D.and_ g.ctx (gen_expr g 1) (D.i32 3) in
                    let arm () = gen_block g ~uniform:false (depth - 1) in
                    D.if_ g.ctx (D.eq g.ctx sel (D.i32 0)) arm (fun () ->
                        D.if_ g.ctx (D.eq g.ctx sel (D.i32 1)) arm (fun () ->
                            D.if_ g.ctx (D.eq g.ctx sel (D.i32 2)) arm arm)));
                ]
              else []);
             (if f.loops_uniform then
                [
                  (fun () ->
                    (* constant trip count: every thread iterates alike,
                       so the body stays in the caller's uniform state *)
                    let trip = 1 + rand g 3 in
                    D.for_up g.ctx ~from:(D.i32 0) ~until:(D.i32 trip)
                      (fun iv ->
                        D.set g.ctx (pick g g.vars)
                          (D.add g.ctx (D.get g.ctx (pick g g.vars)) iv);
                        gen_block g ~uniform (depth - 1)));
                ]
              else []);
             (if f.loops_divergent then
                [
                  (fun () ->
                    (* thread-dependent trip count: temporal divergence;
                       the body is never uniform *)
                    let trip =
                      D.add g.ctx
                        (D.and_ g.ctx
                           (D.xor g.ctx g.tid (D.i32 (rand g 8)))
                           (D.i32 3))
                        (D.i32 1)
                    in
                    D.for_up g.ctx ~from:(D.i32 0) ~until:trip (fun iv ->
                        D.set g.ctx (pick g g.vars)
                          (D.xor g.ctx (D.get g.ctx (pick g g.vars)) iv);
                        gen_block g ~uniform:false (depth - 1)));
                ]
              else []);
             (if f.barriers && uniform then [ (fun () -> barrier_phase g) ]
              else []);
           ])
  in
  let choices = Array.append simple structured in
  (pick g choices) ()

and gen_block g ~uniform (depth : int) =
  let n = 1 + rand g (max 1 g.cfg.stmts_per_block) in
  for _ = 1 to n do
    gen_stmt g ~uniform depth
  done

(** Generate a kernel; deterministic in [(seed, cfg)]. *)
let generate ?(cfg = default_cfg) ~(seed : int) () : Ssa.func =
  D.build_kernel
    ~name:(Printf.sprintf "fuzz_%d" seed)
    ~params:[ ("a", Types.Ptr Types.Global); ("b", Types.Ptr Types.Global) ]
    (fun ctx params ->
      let a, b = match params with [ a; b ] -> (a, b) | _ -> assert false in
      let rng = Random.State.make [| seed; 0x6A09E667 |] in
      let tid = D.tid ctx in
      let gid = D.add ctx (D.mul ctx (D.bid ctx) (D.bdim ctx)) tid in
      let mask_c = D.i32 (cfg.array_size - 1) in
      let own_cell = D.gep ctx b (D.and_ ctx gid mask_c) in
      let ro_arrays, shared =
        if cfg.features.shared_tile then begin
          let s = D.shared_array ctx cfg.array_size in
          (* threads cooperatively seed the whole tile with affine
             tid + round * blockDim addresses, then a uniform barrier
             makes it read-only for the divergent code *)
          let bd = D.bdim ctx in
          let rounds = D.sdiv ctx (D.i32 cfg.array_size) bd in
          let rounds = D.smax ctx rounds (D.i32 1) in
          D.for_up ctx ~name:"seedr" ~from:(D.i32 0) ~until:rounds (fun e ->
              let idx =
                D.and_ ctx (D.add ctx tid (D.mul ctx e bd)) mask_c
              in
              D.store ctx
                (D.add ctx (D.mul ctx idx (D.i32 3))
                   (D.load ctx (D.gep ctx a idx)))
                (D.gep ctx s idx));
          D.sync ctx;
          ([| a; s |], Some s)
        end
        else ([| a |], None)
      in
      let g =
        {
          rng;
          ctx;
          cfg;
          vars =
            Array.init 4 (fun k ->
                let v = D.local ctx ~name:(Printf.sprintf "v%d" k) Types.I32 in
                D.set ctx v
                  (match k with
                  | 0 -> gid
                  | 1 -> tid
                  | 2 -> D.i32 (Random.State.int rng 100)
                  | _ ->
                      D.load ctx
                        (D.gep ctx a (D.and_ ctx gid mask_c)));
                v);
          ro_arrays;
          shared;
          own_cell;
          mask = mask_c;
          gid;
          tid;
        }
      in
      gen_block g ~uniform:true cfg.max_depth;
      (* a barrier-feature kernel always carries at least one fenced
         phase beyond the tile-seeding fence *)
      if cfg.features.barriers then barrier_phase g;
      gen_block g ~uniform:true (min 1 cfg.max_depth);
      (* make the variable state observable *)
      let out = D.add ctx (D.get ctx g.vars.(0)) (D.get ctx g.vars.(1)) in
      let out = D.xor ctx out (D.get ctx g.vars.(2)) in
      let out = D.add ctx out (D.get ctx g.vars.(3)) in
      D.store ctx out g.own_cell)

(* The two-array workload; see the interface. *)
let workload ~(n : int) ~(seed : int) ~(block_size : int) (f : Ssa.func) :
    Kernel.instance =
  let a_init = Kernel.random_int_array ~seed:(seed + 1) ~n ~bound:1000 in
  let b_init = Kernel.random_int_array ~seed:(seed + 2) ~n ~bound:1000 in
  let global = Memory.create ~space:Memory.Sp_global (2 * n) in
  let pa = Memory.alloc_of_int_array global a_init in
  let pb = Memory.alloc_of_int_array global b_init in
  {
    Kernel.func = f;
    global;
    args = [| pa; pb |];
    launch =
      {
        Darm_sim.Simulator.grid_dim = max 1 (n / block_size);
        block_dim = block_size;
      };
    read_result =
      (fun () ->
        Array.append
          (Memory.read_int_array global pa n)
          (Memory.read_int_array global pb n)
        |> Kernel.ints);
    reference = (fun () -> [||]);
  }

let instance ?(cfg = default_cfg) ~(seed : int) ~(block_size : int) () :
    Kernel.instance =
  workload ~n:cfg.array_size ~seed ~block_size (generate ~cfg ~seed ())
