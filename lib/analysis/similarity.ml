(** Structural similarity signatures for SESE subgraphs — the cheap
    prefilter in front of full isomorphism matching + FP_S scoring
    (à la Lim et al., "A Similarity Measure for GPU Kernel Subgraph
    Matching": per-subgraph feature vectors compared instead of the
    graphs themselves).

    A signature combines:

    - a {b canonical CFG-shape encoding}: the subgraph's terminator
      kinds and internal/external successor pattern along a DFS from the
      entry in successor order — exactly the traversal
      [Isomorphism.match_subgraphs] performs on the pair.  Two subgraphs
      it matches necessarily produce byte-identical encodings, so a
      shape (or block-count) difference proves non-isomorphism and the
      pair can be skipped {e exactly};
    - an {b opcode-frequency/latency profile}: per instruction class,
      the total frequency and the maximum per-block class weight, plus
      the total body latency.  These bound the FP_S score from above
      (see {!profit_upper_bound}), so a pair whose bound is below the
      melding threshold would be rejected by the full computation too —
      again an exact skip.

    With the default threshold the prefilter therefore never changes a
    meld decision. *)

open Darm_ir
open Darm_ir.Ssa

(* The profile must mirror Darm_core.Profitability exactly (profiled
   instructions, class set Q, per-block class weight); the library
   layering puts the melding heuristics above this one, so the three
   helpers are restated here and pinned by the fp_s-upper-bound
   property test in the incremental suite. *)
let profiled (b : block) : instr list =
  List.filter
    (fun i -> i.op <> Op.Phi && not (Op.is_terminator i.op))
    b.instrs

let class_key (i : instr) : string = Op.to_string i.op

type t = {
  sg_size : int;  (** block count ([Region.subgraph_size]) *)
  sg_shape : string;  (** canonical shape encoding *)
  sg_matchable : bool;
      (** [false]: the subgraph can never match any subgraph (foreign
          terminator kind, external edge past the exit, or blocks
          unreachable from the entry) *)
  sg_latency : int;  (** Σ body latency over all blocks — lat(S) *)
  sg_classes : (string * int * int) array;
      (** per class, sorted by key: (class, total freq F, max over
          blocks of the per-block class weight W) *)
}

(* Canonical shape walk mirroring Isomorphism.match_subgraphs: DFS from
   the entry in terminator-successor order; per first visit emit the
   terminator kind, per successor emit new-internal (recursion), a
   back-reference to the successor's preorder index, or the external
   exit. *)
let shape_encoding ~(entry : block) ~(in_subgraph : block -> bool)
    ~(exit_dest : block) : string * bool * int =
  let buf = Buffer.create 64 in
  let seen : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let matchable = ref true in
  let count = ref 0 in
  let rec visit (b : block) =
    if not (Hashtbl.mem seen b.bid) then begin
      Hashtbl.replace seen b.bid !count;
      incr count;
      if not (has_terminator b) then matchable := false
      else begin
        let t = terminator b in
        (match t.op with
        | Op.Br -> Buffer.add_char buf 'B'
        | Op.Condbr -> Buffer.add_char buf 'C'
        | _ ->
            (* match_subgraphs only pairs Br/Condbr terminators *)
            matchable := false);
        Array.iter
          (fun s ->
            if in_subgraph s then
              match Hashtbl.find_opt seen s.bid with
              | Some idx ->
                  Buffer.add_char buf 'v';
                  Buffer.add_string buf (string_of_int idx)
              | None ->
                  Buffer.add_char buf 'n';
                  visit s
            else if s.bid = exit_dest.bid then Buffer.add_char buf 'x'
            else
              (* an external edge not to the exit can never pair *)
              matchable := false)
          t.blocks
      end
    end
  in
  visit entry;
  (Buffer.contents buf, !matchable, !count)

let signature ~(lat : Latency.config) ~(blocks : block list)
    ~(entry : block) ~(in_subgraph : block -> bool) ~(exit_dest : block) :
    t =
  let shape, matchable, visited =
    shape_encoding ~entry ~in_subgraph ~exit_dest
  in
  let nblocks = List.length blocks in
  (* blocks unreachable from the entry fail match_subgraphs'
     completeness check against every partner *)
  let matchable = matchable && visited = nblocks in
  let freq : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let wmax : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let latency = ref 0 in
  List.iter
    (fun b ->
      (* per-block class weight = min latency of the class within the
         block (Profitability.class_weight); fold its per-block maximum *)
      let wblock : (string, int) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun i ->
          let key = class_key i in
          let l = Latency.of_instr lat i in
          latency := !latency + l;
          Hashtbl.replace freq key
            (1 + Option.value ~default:0 (Hashtbl.find_opt freq key));
          Hashtbl.replace wblock key
            (match Hashtbl.find_opt wblock key with
            | Some prev -> min prev l
            | None -> l))
        (profiled b);
      Hashtbl.iter
        (fun key w ->
          Hashtbl.replace wmax key
            (match Hashtbl.find_opt wmax key with
            | Some prev -> max prev w
            | None -> w))
        wblock)
    blocks;
  let classes =
    Hashtbl.fold
      (fun key f acc -> (key, f, Hashtbl.find wmax key) :: acc)
      freq []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
    |> Array.of_list
  in
  {
    sg_size = nblocks;
    sg_shape = shape;
    sg_matchable = matchable;
    sg_latency = !latency;
    sg_classes = classes;
  }

(** Necessary condition for [Isomorphism.match_subgraphs] to succeed:
    both matchable, same block count, identical canonical shape.  A
    [false] answer proves the pair is not isomorphic. *)
let compatible (a : t) (b : t) : bool =
  a.sg_matchable && b.sg_matchable
  && a.sg_size = b.sg_size
  && String.equal a.sg_shape b.sg_shape

(* Merge-walk two sorted class arrays. *)
let fold_common (a : t) (b : t)
    (f : 'acc -> fa:int -> wa:int -> fb:int -> wb:int -> 'acc)
    (init : 'acc) : 'acc =
  let acc = ref init in
  let i = ref 0 and j = ref 0 in
  let na = Array.length a.sg_classes and nb = Array.length b.sg_classes in
  while !i < na && !j < nb do
    let ka, fa, wa = a.sg_classes.(!i) in
    let kb, fb, wb = b.sg_classes.(!j) in
    let c = String.compare ka kb in
    if c = 0 then begin
      acc := f !acc ~fa ~wa ~fb ~wb;
      incr i;
      incr j
    end
    else if c < 0 then incr i
    else incr j
  done;
  !acc

(** Upper bound on [Profitability.fp_s] over any isomorphic block
    correspondence of the two subgraphs:

    FP_S = Σ_pairs Σ_q min(f1,f2)·min(w1,w2) / (lat(S1)+lat(S2))
         ≤ Σ_q min(F1(q),F2(q)) · min(W1(q),W2(q)) / (lat(S1)+lat(S2))

    since per-pair frequencies sum to the subgraph totals and every
    per-block class weight is bounded by the subgraph-wide maximum.
    Zero total latency gives bound 0, matching [fp_s]'s convention. *)
let profit_upper_bound (a : t) (b : t) : float =
  let denom = a.sg_latency + b.sg_latency in
  if denom = 0 then 0.
  else
    let saved =
      fold_common a b
        (fun acc ~fa ~wa ~fb ~wb -> acc + (min fa fb * min wa wb))
        0
    in
    float_of_int saved /. float_of_int denom

(** [may_profit ~threshold a b] — can the pair possibly meld?  [false]
    proves the exhaustive search would skip it too: either the shapes
    cannot match, or the profitability bound is below the acceptance
    threshold ([fp_s > threshold] is required to meld). *)
let may_profit ~(threshold : float) (a : t) (b : t) : bool =
  compatible a b && profit_upper_bound a b > threshold
