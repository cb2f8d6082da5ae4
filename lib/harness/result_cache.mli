(** Content-addressed on-disk result cache — the persistence layer of
    the fleet-scale batch driver ([darm_opt batch], doc/fleet.md).

    A cache maps a {e key} — the hex digest of the printed IR, the pass
    configuration signature and the payload schema version — to one
    JSON payload stored as a file.  Because the key covers everything
    the result depends on, a hit can be replayed verbatim: {!find}
    returns the exact stored bytes, so a warm batch run emits output
    byte-identical to the cold run that populated the cache.

    {b Layout.}  Entries live under [dir/<k0k1>/<key>.json] where
    [k0k1] is the first two hex characters of the key — 256 shard
    directories, so even a 100k-kernel corpus keeps directory listings
    short.  Nothing else is stored: the cache has no index to corrupt,
    and eviction is [rm -rf] of the directory (or {!clear}).

    {b Robustness.}  A cache must never turn a crash into a wrong
    answer or a fatal error: {!find} treats a missing, unreadable,
    truncated, unparsable or wrong-schema entry as a miss (returning
    [None], so the caller recomputes), and {!store} writes atomically
    (temp file + rename) so readers — including concurrent batch
    processes sharing the directory — only ever observe complete
    entries. *)

type t

(** ["darm-batchres-v1"]: the ["schema"] field every stored payload
    carries, folded into every {!key} — bumping it invalidates the
    whole cache without deleting it. *)
val schema : string

(** [".darm-cache"]. *)
val default_dir : string

(** Open (and lazily create) a cache rooted at [dir]. *)
val create : ?dir:string -> unit -> t

(** [key t parts] — hex digest of [parts] (joined unambiguously) and
    the cache schema version.  Deterministic across processes. *)
val key : t -> string list -> string

(** Path the entry for [key] lives at (whether or not it exists). *)
val entry_path : t -> key:string -> string

(** The stored bytes and [decode] of their parse (parsed once), or
    [None] when the entry is missing or fails validation: unreadable,
    truncated mid-read by a concurrent writer, not JSON, another
    schema, or [decode] returns [Error].  A failing entry is also
    evicted (best-effort [Sys.remove]) so a poison file is recomputed
    once, not re-parsed on every lookup. *)
val find :
  t ->
  key:string ->
  decode:(Darm_obs.Json.t -> ('a, string) result) ->
  (string * 'a) option

(** Atomically store a payload (newline-terminated JSON line).  Raises
    [Invalid_argument] if [payload] does not parse as JSON carrying the
    cache's schema — a malformed payload must fail the writer, not
    every future reader. *)
val store : t -> key:string -> string -> unit

(** Delete every entry; returns how many were removed. *)
val clear : t -> int

(** {2 Telemetry}

    Lifetime counters of one handle (atomics — pool domains share the
    handle): a {!find} that returns bytes is a hit; any {!find} that
    returns [None] is a miss; a miss that also removed a poison file
    additionally counts as a poison eviction; {!clear} counts its
    removals as evictions.  The counters observe this handle only, not
    the directory — two processes sharing a cache dir each see their
    own traffic. *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_evictions : int;  (** removed by {!clear} *)
  st_poison_evictions : int;  (** invalid entries evicted by {!find} *)
}

val stats : t -> stats
