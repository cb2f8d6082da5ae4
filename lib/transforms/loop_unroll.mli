(** Full unrolling of simple counted loops.

    The paper's pipeline relies on HIPCC's aggressive unrolling: bitonic
    sort's meldable region appears in every unrolled instance of the
    inner loop body, and PCM's multiple isomorphic subgraphs per path
    come from unrolled loops (§VI-E).  This pass provides the same
    enabling transformation for loops whose header is the only exiting
    block and whose induction variable has constant init/step/bound. *)

open Darm_ir

(** Fully unroll every simple counted loop with trip count at most
    [max_trip], repeating until none qualify (nested counted loops
    unroll inside-out).  Returns the number of loops unrolled. *)
val run : ?max_trip:int -> Ssa.func -> int
