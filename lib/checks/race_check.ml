(** Barrier-aware shared-memory race detection.  See the interface for
    the analysis design; in short: addresses become [root + affine
    index], barriers split execution into intervals, and only pairs
    with a concrete distinct-thread witness inside a common interval
    are reported as errors. *)

open Darm_ir
open Darm_ir.Ssa
module Domtree = Darm_analysis.Domtree
module Manager = Darm_analysis.Manager
module IntSet = Set.Make (Int)

let id_race_ww = "shared-race-ww"
let id_race_rw = "shared-race-rw"
let id_race_divergent = "shared-race-divergent"

type verdict = Proved_free | Unknown | Racy

let verdict_to_string = function
  | Proved_free -> "proved-free"
  | Unknown -> "unknown"
  | Racy -> "racy"

(* ------------------------------------------------------------------ *)
(* Address roots                                                       *)

type root = Ralloc of instr | Rparam of param

let root_equal a b =
  match a, b with
  | Ralloc i, Ralloc j -> i.id = j.id
  | Rparam p, Rparam q -> p.pindex = q.pindex
  | _ -> false

let root_is_shared = function
  | Ralloc _ -> true
  | Rparam p -> Types.equal p.pty (Types.Ptr Types.Shared)

(* A root that is definitely NOT shared memory: a global-space pointer
   parameter.  Flat parameters and unresolved addresses may alias
   shared memory. *)
let root_is_global = function
  | Ralloc _ -> false
  | Rparam p -> Types.equal p.pty (Types.Ptr Types.Global)

(* an array by its printed name, which [names] gives on demand *)
let root_name (names : Printer.names Lazy.t) = function
  | Ralloc i -> "shared array " ^ Printer.value_str (Lazy.force names) (Instr i)
  | Rparam p -> "%" ^ p.pname

(* Resolve an address to [root + affine index] through gep and
   addrspace.cast chains.  Phi/select/undef addresses have no root. *)
let rec resolve_addr (af : Affine.t) (v : value) (idx : Affine.av) :
    (root * Affine.av) option =
  match v with
  | Instr i -> (
      match i.op with
      | Op.Alloc_shared _ -> Some (Ralloc i, idx)
      | Op.Gep ->
          resolve_addr af i.operands.(0)
            (Affine.av_add idx (Affine.value_av af i.operands.(1)))
      | Op.Addrspace_cast -> resolve_addr af i.operands.(0) idx
      | _ -> None)
  | Param p when Types.is_pointer p.pty -> Some (Rparam p, idx)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Barrier intervals                                                   *)

(* Facts are sets of interval markers: the distinguished entry marker
   plus the instr ids of the barriers that may most recently have
   executed.  A barrier wipes the incoming fact — it ends every
   interval that reaches it. *)
let entry_marker = -1

module Solver = Dataflow.Forward (struct
  type t = IntSet.t

  let equal = IntSet.equal
  let join = IntSet.union
end)

let block_transfer (b : block) (fact : IntSet.t) : IntSet.t =
  List.fold_left
    (fun fact i ->
      if i.op = Op.Syncthreads then IntSet.singleton i.id else fact)
    fact b.instrs

(* ------------------------------------------------------------------ *)
(* Accesses                                                            *)

type access = {
  a_instr : instr;
  a_block : block;
  a_write : bool;
  a_root : (root * Affine.av) option;
  a_intervals : IntSet.t;
  a_divergent : bool;  (** executes under an open divergent branch *)
  a_solo : bool;  (** provably executed by at most one thread *)
}

let may_same_interval a b = not (IntSet.disjoint a.a_intervals b.a_intervals)

(* Blocks provably executed by at most one thread: dominated by the
   single-predecessor taken-successor of a [tid-like == uniform]
   branch.  "tid-like vs uniform" generalizes to: both comparison
   operands are affine with distinct tid coefficients, so for any
   fixed value of the uniform symbols at most one thread satisfies
   equality. *)
let solo_block_set (af : Affine.t) (f : func) : IntSet.t =
  let dt = Manager.domtree f in
  let solo = ref IntSet.empty in
  let reachable = Manager.reachable f in
  List.iter
    (fun c ->
      match List.rev c.instrs with
      | t :: _ when t.op = Op.Condbr -> (
          match t.operands.(0) with
          | Instr ci -> (
              let taken =
                match ci.op with
                | Op.Icmp Op.Ieq -> Some t.blocks.(0)
                | Op.Icmp Op.Ine -> Some t.blocks.(1)
                | _ -> None
              in
              match taken with
              | Some dest when t.blocks.(0).bid <> t.blocks.(1).bid -> (
                  match
                    ( Affine.value_av af ci.operands.(0),
                      Affine.value_av af ci.operands.(1) )
                  with
                  | Affine.Form a, Affine.Form b when a.Affine.c <> b.Affine.c
                    ->
                      if
                        List.length (preds dest) = 1
                        && dest.bid <> c.bid
                      then
                        List.iter
                          (fun b2 ->
                            if Domtree.dominates dt dest b2 then
                              solo := IntSet.add b2.bid !solo)
                          reachable
                  | _ -> ())
              | _ -> ())
          | _ -> ())
      | _ -> ())
    reachable;
  !solo

(* ------------------------------------------------------------------ *)
(* Pair reasoning                                                      *)

let syms_cancel (a : Affine.form) (b : Affine.form) : bool =
  a.Affine.m = b.Affine.m
  && (match a.Affine.sym, b.Affine.sym with
     | None, None -> true
     | Some u, Some v -> value_equal u v
     | _ -> false)

(* Concrete witness: distinct threads t, t' in [0, 64) with
   ca*t + ka = cb*t' + kb (symbolic parts must cancel). *)
let witness (a : Affine.form) (b : Affine.form) : (int * int) option =
  if not (syms_cancel a b) then None
  else begin
    let found = ref None in
    for t = 0 to 63 do
      for t' = 0 to 63 do
        if !found = None && t <> t' then
          if (a.Affine.c * t) + a.Affine.k = (b.Affine.c * t') + b.Affine.k
          then found := Some (t, t')
      done
    done;
    !found
  end

(* Sound disjointness for any block size: same stride, and either both
   uniform at distinct offsets, or offsets equal / not stride-aligned. *)
let provably_disjoint (a : Affine.form) (b : Affine.form) : bool =
  syms_cancel a b
  && a.Affine.c = b.Affine.c
  &&
  let c = a.Affine.c and ka = a.Affine.k and kb = b.Affine.k in
  if c = 0 then ka <> kb else ka = kb || (kb - ka) mod c <> 0

(* ------------------------------------------------------------------ *)

type t = { diags : Diag.t list; verdict : verdict }

let diags (t : t) = t.diags
let verdict (t : t) = t.verdict

let has_shared_memory (f : func) : bool =
  List.exists (fun p -> Types.equal p.pty (Types.Ptr Types.Shared)) f.params
  || fold_instrs f
       (fun acc i ->
         acc || match i.op with Op.Alloc_shared _ -> true | _ -> false)
       false

let collect_accesses (af : Affine.t) (bdiv : Barrier_check.t)
    (intervals : Solver.result) (solo : IntSet.t) (f : func) : access list =
  let accesses = ref [] in
  List.iter
    (fun b ->
      let divergent = Barrier_check.open_in bdiv b <> [] in
      let is_solo = IntSet.mem b.bid solo in
      let fact = ref (Solver.block_in intervals b) in
      List.iter
        (fun i ->
          match i.op with
          | Op.Syncthreads -> fact := IntSet.singleton i.id
          | Op.Load | Op.Store ->
              let addr =
                if i.op = Op.Load then i.operands.(0) else i.operands.(1)
              in
              accesses :=
                {
                  a_instr = i;
                  a_block = b;
                  a_write = i.op = Op.Store;
                  a_root = resolve_addr af addr (Affine.const 0);
                  a_intervals = !fact;
                  a_divergent = divergent;
                  a_solo = is_solo;
                }
                :: !accesses
          | _ -> ())
        b.instrs)
    (Manager.reachable f);
  List.rev !accesses

let analyze ?bdiv (f : func) : t =
  let af = Affine.compute (Manager.divergence f) f in
  let bdiv =
    match bdiv with Some b -> b | None -> Barrier_check.analyze f
  in
  let intervals =
    Solver.solve
      ~entry:(IntSet.singleton entry_marker)
      ~init:IntSet.empty ~transfer:block_transfer f
  in
  let solo = solo_block_set af f in
  let accesses = collect_accesses af bdiv intervals solo f in
  let arr = Array.of_list accesses in
  let n = Array.length arr in
  let diags = ref [] in
  let names = lazy (Printer.assign_names f) in
  let racy = ref false in
  (* definite races: same known shared root, common interval, concrete
     distinct-thread witness *)
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      if
        (a.a_write || b.a_write)
        && may_same_interval a b
      then
        match a.a_root, b.a_root with
        | Some (ra, ia), Some (rb, ib)
          when root_equal ra rb && root_is_shared ra -> (
            match ia, ib with
            | Affine.Form fa, Affine.Form fb -> (
                match witness fa fb with
                | Some (t, t') when not (a.a_solo || b.a_solo) ->
                    let ww = a.a_write && b.a_write in
                    let site x = Ssa.site ~block:x.a_block x.a_instr in
                    let where =
                      if i = j then
                        Printf.sprintf "instr %s (index %s)" (site a)
                          (Affine.to_string ia)
                      else
                        Printf.sprintf
                          "instrs %s (index %s, block %s) and %s (index %s, \
                           block %s)"
                          (site a) (Affine.to_string ia) a.a_block.bname
                          (site b) (Affine.to_string ib) b.a_block.bname
                    in
                    if a.a_divergent || b.a_divergent then
                      diags :=
                        Diag.make ~id:id_race_divergent ~severity:Diag.Warning
                          ~func:f ~block:a.a_block ~instr:a.a_instr
                          (Printf.sprintf
                             "possible %s race on %s under a divergent \
                              branch: %s; threads %d and %d hit the same \
                              element"
                             (if ww then "write-write" else "read-write")
                             (root_name names ra) where t t')
                        :: !diags
                    else begin
                      racy := true;
                      diags :=
                        Diag.make
                          ~id:(if ww then id_race_ww else id_race_rw)
                          ~severity:Diag.Error ~func:f ~block:a.a_block
                          ~instr:a.a_instr
                          (Printf.sprintf
                             "%s race on %s: %s; e.g. threads %d and %d hit \
                              the same element with no barrier in between"
                             (if ww then "write-write" else "read-write")
                             (root_name names ra) where t t')
                        :: !diags
                    end
                | _ -> ())
            | _ -> ())
        | _ -> ()
    done
  done;
  (* sound verdict *)
  let verdict =
    if !racy then Racy
    else if List.exists Diag.is_error (Barrier_check.diags bdiv) then Unknown
    else if not (has_shared_memory f) then Proved_free
    else begin
      let possibly_shared a =
        match a.a_root with
        | None -> true
        | Some (r, _) -> not (root_is_global r)
      in
      let shared = List.filter possibly_shared accesses in
      let analyzable a =
        match a.a_root with
        | Some (r, Affine.Form fm) ->
            root_is_shared r && fm.Affine.m = 0 && not a.a_solo
        | _ -> false
      in
      if not (List.for_all analyzable shared) then Unknown
      else begin
        let ok = ref true in
        let sarr = Array.of_list shared in
        for i = 0 to Array.length sarr - 1 do
          for j = i to Array.length sarr - 1 do
            let a = sarr.(i) and b = sarr.(j) in
            if (a.a_write || b.a_write) && may_same_interval a b then
              match a.a_root, b.a_root with
              | Some (ra, Affine.Form fa), Some (rb, Affine.Form fb) ->
                  if root_equal ra rb && not (provably_disjoint fa fb) then
                    ok := false
              | _ -> ok := false
          done
        done;
        if !ok then Proved_free else Unknown
      end
    end
  in
  { diags = List.rev !diags; verdict }
