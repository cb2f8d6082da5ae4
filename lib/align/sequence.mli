(** Generic pairwise sequence alignment: {!needleman_wunsch}, global
    alignment with affine gap penalties (Gotoh's algorithm),
    parameterised by a scoring function — used for instruction
    alignment, where the paper's gap cost is two branches per gap
    {e run}, independent of run length. *)

type ('a, 'b) aligned =
  | Both of 'a * 'b   (** proper alignment: "I-I" pair *)
  | Left of 'a        (** item of the first sequence aligned with a gap *)
  | Right of 'b       (** item of the second sequence aligned with a gap *)

(** [needleman_wunsch ~score ~gap_open ~gap_extend a b] computes an
    optimal global alignment.  [score x y] returns [None] when [x] and
    [y] must not be aligned (e.g. a load against a store) and [Some s]
    for a permitted alignment of benefit [s].  [gap_open] and
    [gap_extend] are non-positive costs for starting and extending a run
    of gaps.  Returns the alignment in order plus its total score. *)
val needleman_wunsch :
  score:('a -> 'b -> float option) ->
  gap_open:float ->
  gap_extend:float ->
  'a array ->
  'b array ->
  ('a, 'b) aligned list * float
