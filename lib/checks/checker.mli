(** Checker orchestration: run every sanity checker over a kernel and
    produce one structured report.

    Order matters: {!Darm_ir.Verify} runs first, and when it fails the
    dataflow checkers are skipped (their CFG walks assume well-formed
    IR) — the report then carries one [invalid-ir] error per verifier
    complaint.  On well-formed IR the barrier-divergence checker, the
    shared-memory race checker and the hygiene lints all run, their
    diagnostics are merged and sorted (errors first), and the race
    checker's sound verdict is attached.

    {!new_errors} is the translation-validation primitive used by
    {!Darm_core.Pass}: it diffs two reports by {e error id multiset},
    so melding is allowed to move or rephrase a pre-existing diagnostic
    but not to mint a new kind of error or another instance of an
    existing kind. *)

open Darm_ir

type report = {
  kernel : string;
  diags : Diag.t list;  (** sorted: errors first, then by id/location *)
  verdict : Race_check.verdict;
}

(** [facts] (when supplied) must be a {!Darm_analysis.Manager} for [f];
    the checkers then draw the divergence analysis and both dominator
    trees from its cache instead of recomputing them per checker.
    Independent of [facts], the barrier-divergence analysis runs once
    and is shared with the race checker.  Raises [Invalid_argument]
    when [facts] manages a different function. *)
val check_func : ?facts:Darm_analysis.Manager.t -> Ssa.func -> report

val errors : report -> Diag.t list

(** Error diagnostics of [after] whose id occurs more often than in
    [before] (one representative per excess occurrence); empty when
    [after] is no worse than [before]. *)
val new_errors : before:report -> after:report -> Diag.t list

val report_to_string : report -> string

(** Stable machine-readable form; the [schema] field is
    ["darm-check-v1"] ([format] is a deprecated alias kept until
    [darm-check-v2] — see doc/schemas.md). *)
val report_to_json : report -> Darm_obs.Json.t

(** The [id] of the diagnostics a {!Darm_ir.Verify} failure becomes;
    suite_checks' "checker: invalid ir" case matches on it. *)
val id_invalid_ir : string
