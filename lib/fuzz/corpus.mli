(** The regression corpus: shrunk repros as self-contained [.ll] files.

    Every file the fuzzer ever minted stays replayable forever.  A
    corpus entry is printed IR prefixed by a one-line provenance header:

    {v
    ; darm-corpus-v1 name=loop-mix seed=8 input_seed=8 block_size=64 n=128 expect=fail/darm-nounpred/mismatch
    ; note: found by gen v1, shrunk from 188 blocks
    kernel @loop_mix(%a: ptr(global), %b: ptr(global)) { ... }
    v}

    [expect=pass] entries must sail through the whole oracle matrix;
    [expect=fail/<stage>/<kind>] entries must fail with exactly that
    {!Oracle.failure_key} — so a fixed bug (the entry starts passing) or
    a changed failure mode both flip the replay red, prompting the
    header to be updated deliberately. *)

type expectation = Pass | Fail of { stage : string; kind : string }

type entry = {
  en_name : string;  (** file stem; no spaces *)
  en_seed : int;  (** generator seed provenance (informational) *)
  en_block_size : int;
  en_n : int;
  en_input_seed : int;
  en_expect : expectation;
  en_note : string option;
  en_text : string;  (** the kernel, printed IR *)
}

val expectation_to_string : expectation -> string
val expectation_of_string : string -> (expectation, string) result

val to_string : entry -> string
val of_string : string -> (entry, string) result

val load_file : string -> (entry, string) result

(** Write [<dir>/<name>.ll] atomically, creating [dir] and its missing
    parents; returns the path. *)
val save : dir:string -> entry -> string

(** All [*.ll] files in the directory, sorted by filename so replay
    order is stable. *)
val load_dir : string -> (string * (entry, string) result) list

(** Run the entry through the oracle matrix and check the verdict
    against its expectation.  [Ok] exactly when an [expect=pass] entry
    produces no failures, or an [expect=fail] entry produces at least
    one failure whose {!Oracle.failure_key} matches. *)
val replay : entry -> (unit, string) result
