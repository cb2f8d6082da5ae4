(** Edit-set descriptions reported by IR transforms to the analysis
    {!Manager}.

    A transform that mutates a function tells the manager {e what kind}
    of change it made and {e which blocks} it touched; the manager then
    invalidates only the cached analyses that edit can affect.  An edit
    is a contract: reporting a weaker edit than what actually happened
    (e.g. [Dce] after rewiring an edge) yields stale analyses — the
    manager's debug mode ({!Manager.create}[ ~debug:true]) exists to
    catch exactly that.

    The block ids listed in an edit are the {e dirty set}: blocks that
    were created, deleted, or whose terminator edges or instruction
    bodies changed.  Blocks whose instructions were merely re-pointed at
    new operand values (use rewriting) need not be listed — operand
    identity is invisible to the CFG-shaped analyses, and the edits that
    rewrite uses ([Cfg_local], [Whole]) already invalidate the
    value-level divergence analysis. *)

type t =
  | Dce of int list
      (** user-less non-terminator instructions were deleted from the
          listed blocks; no edges changed.  Preserves every CFG-derived
          analysis (terminators never die).  Divergence facts about the
          surviving instructions also hold — removed instructions have
          no users — but the divergent-instruction set itself may
          shrink, so the cached divergence result is invalidated *)
  | Cfg_local of int list
      (** blocks were created or deleted and/or terminator edges were
          rewired, all within the listed dirty set (every changed edge
          has its source in the set; created and deleted blocks are in
          the set).  Invalidates the CFG, both dominator trees and
          divergence *)
  | Whole  (** arbitrary rewrite; invalidates everything *)

(** A log of edits accumulated by a transform on behalf of its caller.
    Transforms take an [?edits:log] parameter and {!note} into it; a
    caller holding a {!Manager} drains the log into the manager after
    the transform returns. *)
type log = t list ref

let log () : log = ref []

(** [note edits e] appends [e] to the log ([None] = no-op, for callers
    that don't track edits). *)
let note (edits : log option) (e : t) : unit =
  match edits with None -> () | Some l -> l := e :: !l

(** The accumulated edits, oldest first. *)
let drain (l : log) : t list =
  let es = List.rev !l in
  l := [];
  es
