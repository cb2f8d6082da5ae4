(** Binary, atomic file output and the one whole-file reader, shared by
    every sink that promises byte-identical or crash-safe files and
    every loader of an external input.

    Two properties every writer in this tree wants and none should
    re-implement:

    - {b binary mode} — the determinism story of the trace, history and
      CSV sinks is "[cmp] the files"; a text-mode channel would rewrite
      ['\n'] on some platforms and silently break it;
    - {b atomicity} — metrics snapshots and cache entries are
      overwritten in place; a crash mid-write must never leave a torn
      file for the validator (or CI) to choke on, so the bytes go to a
      sibling temp file first and [Sys.rename] into place only once
      complete (and validated). *)

(** [write_atomic ?validate ~path contents] writes [contents] to a
    fresh temp file in [path]'s directory, optionally re-reads the
    written bytes and passes them to [validate] (which must raise on a
    bad file), then renames the temp file onto [path].  On any failure
    the temp file is removed and [path] is left untouched — in
    particular a previous version of the file survives a failed
    write. *)
val write_atomic :
  ?validate:(string -> unit) -> path:string -> string -> unit

(** [mkdir_p dir] creates [dir] and any missing parent directories
    (mode 0o755); an existing directory, or one another process makes
    meanwhile, is fine.  Raises [Sys_error] when a level cannot be
    made. *)
val mkdir_p : string -> unit

(** Whole file as bytes (binary mode).  Never raises: a missing file
    (["<path>: no such file"]), a directory (["<path>: is a
    directory"]), an unreadable file, or one that shrinks while it is
    read gives an [Error] naming the path.  A successful read costs one
    open and one read; the error path alone stats the file. *)
val read : string -> (string, string) result

(** {!read} for callers that treat a failed read as fatal: raises
    [Sys_error] with {!read}'s message. *)
val read_file : string -> string
