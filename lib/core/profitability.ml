(** Melding profitability heuristics FP_B and FP_S (paper §IV-C).

    FP_B(b1, b2) approximates the fraction of thread cycles saved by
    melding two basic blocks, assuming every instruction class common to
    both blocks melds:

    FP_B = (Σ_i min(freq(i,b1), freq(i,b2)) · w_i) / (lat(b1) + lat(b2))

    Two blocks with identical opcode-frequency profiles score 0.5 — the
    best case, where the pair executes in the cycles of one block.

    FP_S lifts FP_B to isomorphic subgraphs as the latency-weighted
    average over corresponding block pairs, i.e. the fraction of the
    subgraph pair's total cycles saved.

    Everything here reads one profile per block, built in one pass over
    its body; a subgraph summary keeps its blocks' profiles in walk
    order, so the candidate search scores a pair, and bounds its score,
    from two summaries. *)

open Darm_ir.Ssa
module Latency = Darm_analysis.Latency

(* Only body instructions participate: phis do not occupy issue slots
   and terminators exist in every block, so counting them would make a
   pair of empty blocks look 0.5-profitable and the pass would meld its
   own freshly created exit blocks forever. *)
let profiled (i : instr) : bool =
  i.op <> Darm_ir.Op.Phi && not (Darm_ir.Op.is_terminator i.op)

(* The class set Q is the plain opcode, as in the paper: a shared and a
   global load are the same class (they are meldable into one flat
   access), even though their latencies differ. *)
let class_key (i : instr) : string = Darm_ir.Op.to_string i.op

(* (class, frequency, latency) triples sorted by class, one per class:
   the frequencies of a class's items add up and [merge] combines
   their latencies *)
let collapse (merge : int -> int -> int) (items : (string * int * int) list)
    : (string * int * int) array =
  let rec go acc = function
    | [] -> Array.of_list (List.rev acc)
    | (k, f, w) :: rest -> (
        match acc with
        | (k', f', w') :: acc' when String.equal k k' ->
            go ((k, f + f', merge w w') :: acc') rest
        | _ -> go ((k, f, w) :: acc) rest)
  in
  go []
    (List.stable_sort (fun (a, _, _) (b, _, _) -> String.compare a b) items)

(* Σ over the classes both sorted arrays hold of min(freq) · min(weight) *)
let shared (a : (string * int * int) array) (b : (string * int * int) array)
    : int =
  let rec go i j acc =
    if i >= Array.length a || j >= Array.length b then acc
    else
      let ka, fa, wa = a.(i) and kb, fb, wb = b.(j) in
      let c = String.compare ka kb in
      if c = 0 then go (i + 1) (j + 1) (acc + (min fa fb * min wa wb))
      else if c < 0 then go (i + 1) j acc
      else go i (j + 1) acc
  in
  go 0 0 0

(* A block's profile: per class its frequency and w_i, the cheapest
   latency among its instructions (when the two blocks' latencies
   differ, e.g. shared vs global memory, the cheaper one is the
   conservative estimate of what melding can save); and lat(b), the
   static latency of the body. *)
type profile = { classes : (string * int * int) array; latency : int }

let profile (c : Latency.config) (b : block) : profile =
  let items =
    List.filter_map
      (fun i ->
        if profiled i then Some (class_key i, 1, Latency.of_instr c i)
        else None)
      b.instrs
  in
  {
    classes = collapse min items;
    latency = List.fold_left (fun acc (_, _, l) -> acc + l) 0 items;
  }

let fp_b_of (p1 : profile) (p2 : profile) : float =
  let denom = p1.latency + p2.latency in
  if denom = 0 then 0.
  else float_of_int (shared p1.classes p2.classes) /. float_of_int denom

let fp_b (c : Latency.config) (b1 : block) (b2 : block) : float =
  fp_b_of (profile c b1) (profile c b2)

(* FP_S over the profiles of corresponding blocks, in pair order *)
let fp_s_of (ps1 : profile array) (ps2 : profile array) : float =
  let num = ref 0. and denom = ref 0. in
  Array.iteri
    (fun k p1 ->
      let p2 = ps2.(k) in
      let lat = float_of_int (p1.latency + p2.latency) in
      num := !num +. (fp_b_of p1 p2 *. lat);
      denom := !denom +. lat)
    ps1;
  if !denom = 0. then 0. else !num /. !denom

(** FP_S over an isomorphic block correspondence [o]. *)
let fp_s (c : Latency.config) (o : (block * block) list) : float =
  let side pick = Array.of_list (List.map (fun p -> profile c (pick p)) o) in
  fp_s_of (side fst) (side snd)

type summary =
  | Unmatchable
  | Summary of {
      shape : string;  (** {!Isomorphism.walk}'s shape *)
      blocks : profile array;  (** in the walk's preorder *)
      latency : int;  (** lat(S), the sum of the blocks' *)
      classes : (string * int * int) array;
          (** per class: its total frequency, and the largest of the
              blocks' w_i *)
    }

let summarize (c : Latency.config) (sg : Region.subgraph) : summary =
  match Isomorphism.walk sg with
  | None -> Unmatchable
  | Some w ->
      let blocks =
        Array.of_list (List.map (profile c) w.Isomorphism.preorder)
      in
      Summary
        {
          shape = w.Isomorphism.shape;
          blocks;
          latency = Array.fold_left (fun acc p -> acc + p.latency) 0 blocks;
          classes =
            collapse max
              (List.concat_map (fun p -> Array.to_list p.classes)
                 (Array.to_list blocks));
        }

let score (a : summary) (b : summary) : float option =
  match a, b with
  | Summary a, Summary b when String.equal a.shape b.shape ->
      Some (fp_s_of a.blocks b.blocks)
  | _ -> None

(* FP_S = Σ_pairs Σ_q min(f1,f2)·min(w1,w2) / (lat(S1)+lat(S2))
        ≤ Σ_q min(F1(q),F2(q)) · min(W1(q),W2(q)) / (lat(S1)+lat(S2))
   since per-pair frequencies sum to the subgraph totals and every
   per-block class weight is at most the subgraph-wide maximum.  That
   is the exact ratio; [fp_s_of] computes an n-term weighted average of
   rounded per-pair ratios instead, which can land an ulp above the
   rounded ratio (Gen smoke seed 148 has such a pair).  Each term of
   that average passes through at most n+2 roundings (its ratio, its
   product with the latency, n-1 additions, the final division), so
   the computed FP_S exceeds the exact one by a relative (n+2)·ε/2 at
   most, and the rounded ratio falls short of the exact one by ε/2 at
   most.  Widening it by (2n+4)·ε, more than twice their sum, leaves
   room for the widening's own rounding and bounds the computed
   score.  Zero total latency bounds it by 0, as [fp_s_of] scores it. *)
let may_profit ~(threshold : float) (a : summary) (b : summary) : bool =
  match a, b with
  | Summary a, Summary b when String.equal a.shape b.shape ->
      let denom = a.latency + b.latency in
      let bound =
        if denom = 0 then 0.
        else
          let n = Array.length a.blocks in
          float_of_int (shared a.classes b.classes)
          /. float_of_int denom
          *. (1. +. (float_of_int ((2 * n) + 4) *. epsilon_float))
      in
      bound > threshold
  | _ -> false
