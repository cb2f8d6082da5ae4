(** Structural similarity signatures for SESE subgraphs — the cheap
    prefilter in front of full isomorphism matching + FP_S scoring
    (à la Lim et al., "A Similarity Measure for GPU Kernel Subgraph
    Matching").

    A signature holds a canonical CFG-shape encoding (mirroring the
    traversal of [Isomorphism.match_subgraphs]) and an aggregated
    opcode-frequency/latency profile.  {!compatible} is a {e necessary}
    condition for isomorphism and {!profit_upper_bound} bounds FP_S
    from above, so skipping pairs that fail {!may_profit} at the
    acceptance threshold is exact: the exhaustive search would have
    rejected them too. *)

open Darm_ir

type t

(** [signature ~lat ~blocks ~entry ~in_subgraph ~exit_dest] summarizes
    one SESE subgraph: [blocks] are all its blocks, [entry] its entry,
    [in_subgraph] the membership test, [exit_dest] the unique external
    successor. *)
val signature :
  lat:Latency.config ->
  blocks:Ssa.block list ->
  entry:Ssa.block ->
  in_subgraph:(Ssa.block -> bool) ->
  exit_dest:Ssa.block ->
  t

(** Necessary condition for the pair to be isomorphic; [false] proves
    non-isomorphism. *)
val compatible : t -> t -> bool

(** Upper bound on FP_S over any isomorphic correspondence of the two
    subgraphs (0 when the total latency is 0, matching [fp_s]). *)
val profit_upper_bound : t -> t -> float

(** [may_profit ~threshold a b]: can the pair possibly meld?  [false]
    proves the exhaustive search would skip it (shape mismatch or
    FP_S bound ≤ threshold). *)
val may_profit : threshold:float -> t -> t -> bool
