(** All evaluation kernels, keyed by their figure tags. *)

val synthetic : Kernel.t list

val real_world : Kernel.t list

val all : Kernel.t list

(** Deliberately broken kernels ({!Badkernels}) for the sanity-checker
    negative tests; not part of {!all}, so sweeps and fuzzers never
    execute them. *)
val negative : Kernel.t list

(** Case-insensitive lookup by tag. *)
val find : string -> Kernel.t option

(** Like {!find} but also resolves {!negative} kernels. *)
val find_any : string -> Kernel.t option

val tags : unit -> string list
