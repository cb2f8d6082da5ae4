(** Edit-set descriptions reported by IR transforms to the analysis
    {!Manager}.

    A transform that mutates a function tells the manager {e what kind}
    of change it made and {e which blocks} it touched; the manager then
    invalidates only the cached analyses that edit can affect.  An edit
    is a contract: reporting a weaker edit than what actually happened
    yields stale analyses — the manager's debug mode exists to catch
    exactly that.

    Dirty-set convention: the listed block ids are blocks that were
    created, deleted, or whose terminator edges or instruction bodies
    changed.  Pure use rewriting (re-pointing operands at new values)
    need not be listed. *)

type t =
  | Dce of int list
      (** user-less instructions deleted from the listed blocks; no
          edges changed.  Preserves every CFG-derived analysis; the
          divergence {e facts} about surviving instructions also hold
          (the deleted ones had no users), but the divergent-instruction
          {e set} may shrink, so the cached result is invalidated *)
  | Cfg_local of int list
      (** blocks created/deleted and/or edges rewired, all changed
          edge sources within the listed set.  Invalidates
          CFG/domtrees/divergence *)
  | Whole  (** arbitrary rewrite; invalidates everything *)

(** Edit log accumulated by a transform for its caller; see
    {!Manager.note}. *)
type log = t list ref

val log : unit -> log

(** [note edits e] appends [e] ([None] = no-op). *)
val note : log option -> t -> unit

(** The accumulated edits, oldest first; empties the log. *)
val drain : log -> t list
