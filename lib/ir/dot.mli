(** Graphviz export of control-flow graphs: each basic block becomes a
    record node listing its instructions, conditional edges are
    labelled T/F, and [highlight] marks blocks (e.g. divergent branches)
    with a filled background. *)

val func_to_dot : ?highlight:(Ssa.block -> bool) -> Ssa.func -> string
