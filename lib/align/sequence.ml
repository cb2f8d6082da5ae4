(** Generic pairwise sequence alignment: {!needleman_wunsch}, global
    alignment with affine gap penalties (Gotoh's algorithm),
    parameterised by a scoring function — used for instruction
    alignment, where the paper's gap cost is two branches per gap
    {e run}, independent of run length. *)

type ('a, 'b) aligned =
  | Both of 'a * 'b   (** proper alignment: "I-I" pair *)
  | Left of 'a        (** item of the first sequence aligned with a gap *)
  | Right of 'b       (** item of the second sequence aligned with a gap *)

let neg_inf = neg_infinity

(** [needleman_wunsch ~score ~gap_open ~gap_extend a b] computes an
    optimal global alignment.  [score x y] returns [None] when [x] and
    [y] must not be aligned (e.g. a load against a store) and [Some s]
    for a permitted alignment of benefit [s].  [gap_open] and
    [gap_extend] are non-positive costs for starting and extending a run
    of gaps.  Returns the alignment in order plus its total score. *)
let needleman_wunsch ~(score : 'a -> 'b -> float option)
    ~(gap_open : float) ~(gap_extend : float) (a : 'a array) (b : 'b array) :
    ('a, 'b) aligned list * float =
  let n = Array.length a and m = Array.length b in
  (* dp.(i).(j) considers a[0..i-1] vs b[0..j-1].
     Three matrices: mm = last move was a match, gx = last move consumed
     from a (gap in b), gy = last move consumed from b (gap in a). *)
  let mm = Array.make_matrix (n + 1) (m + 1) neg_inf in
  let gx = Array.make_matrix (n + 1) (m + 1) neg_inf in
  let gy = Array.make_matrix (n + 1) (m + 1) neg_inf in
  mm.(0).(0) <- 0.;
  for i = 1 to n do
    gx.(i).(0) <- gap_open +. (float_of_int (i - 1) *. gap_extend)
  done;
  for j = 1 to m do
    gy.(0).(j) <- gap_open +. (float_of_int (j - 1) *. gap_extend)
  done;
  let max3 x y z = max x (max y z) in
  for i = 1 to n do
    for j = 1 to m do
      (match score a.(i - 1) b.(j - 1) with
      | Some s ->
          mm.(i).(j) <-
            s +. max3 mm.(i - 1).(j - 1) gx.(i - 1).(j - 1) gy.(i - 1).(j - 1)
      | None -> mm.(i).(j) <- neg_inf);
      gx.(i).(j) <-
        max3
          (mm.(i - 1).(j) +. gap_open)
          (gx.(i - 1).(j) +. gap_extend)
          (gy.(i - 1).(j) +. gap_open);
      gy.(i).(j) <-
        max3
          (mm.(i).(j - 1) +. gap_open)
          (gy.(i).(j - 1) +. gap_extend)
          (gx.(i).(j - 1) +. gap_open)
    done
  done;
  (* traceback *)
  let best i j = max3 mm.(i).(j) gx.(i).(j) gy.(i).(j) in
  let rec walk i j acc =
    if i = 0 && j = 0 then acc
    else if i > 0 && j > 0 && best i j = mm.(i).(j) then
      walk (i - 1) (j - 1) (Both (a.(i - 1), b.(j - 1)) :: acc)
    else if i > 0 && (j = 0 || best i j = gx.(i).(j)) then
      walk (i - 1) j (Left a.(i - 1) :: acc)
    else walk i (j - 1) (Right b.(j - 1) :: acc)
  in
  let total = best n m in
  (walk n m [], total)
