(* Content-addressed on-disk result cache.  See result_cache.mli. *)

module Json = Darm_obs.Json
module Fsio = Darm_obs.Fsio

type stats = {
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_poison_evictions : int;
}

type t = {
  c_dir : string;
  c_schema : string;
  (* lifetime telemetry of this handle; atomics because batch pool
     domains share one handle *)
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_evictions : int Atomic.t;
  c_poison : int Atomic.t;
}

let default_schema = "darm-batchres-v1"

let default_dir = ".darm-cache"

let create ?(dir = default_dir) ?(schema = default_schema) () =
  {
    c_dir = dir;
    c_schema = schema;
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_evictions = Atomic.make 0;
    c_poison = Atomic.make 0;
  }

let stats t : stats =
  {
    st_hits = Atomic.get t.c_hits;
    st_misses = Atomic.get t.c_misses;
    st_evictions = Atomic.get t.c_evictions;
    st_poison_evictions = Atomic.get t.c_poison;
  }

let dir t = t.c_dir
let schema t = t.c_schema

(* Length-prefix every part so ["ab"; "c"] and ["a"; "bc"] hash apart,
   and fold the schema version in so a payload format bump is a whole
   new key space. *)
let key t (parts : string list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b t.c_schema;
  List.iter
    (fun p ->
      Buffer.add_char b '\x00';
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let shard_of_key k = if String.length k >= 2 then String.sub k 0 2 else "xx"

let entry_path t ~key =
  Filename.concat (Filename.concat t.c_dir (shard_of_key key)) (key ^ ".json")

let payload_valid t (bytes : string) : bool =
  match Json.parse bytes with
  | Error _ -> false
  | Ok j -> (
      match Json.member "schema" j with
      | Some (Json.Str s) -> s = t.c_schema
      | _ -> false)

let find t ~key : string option =
  let path = entry_path t ~key in
  (* missing, unreadable, or truncated mid-read by a concurrent
     writer: a miss, never a crash *)
  match Fsio.read path with
  | Error _ ->
      Atomic.incr t.c_misses;
      None
  | Ok bytes ->
      if payload_valid t bytes then begin
        Atomic.incr t.c_hits;
        Some bytes
      end
      else begin
        (* corrupt, truncated or wrong-schema bytes: evict the poison
           file so the next store rewrites it, instead of re-parsing
           the same garbage on every lookup forever *)
        (try Sys.remove path with Sys_error _ -> ());
        Atomic.incr t.c_poison;
        Atomic.incr t.c_misses;
        None
      end

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let store t ~key payload =
  if not (payload_valid t payload) then
    invalid_arg
      (Printf.sprintf
         "Result_cache.store: payload is not valid %S JSON" t.c_schema);
  let path = entry_path t ~key in
  mkdir_p (Filename.dirname path);
  Fsio.write_atomic ~path payload

let clear t : int =
  let removed = ref 0 in
  if Sys.file_exists t.c_dir && Sys.is_directory t.c_dir then
    Array.iter
      (fun shard ->
        let sdir = Filename.concat t.c_dir shard in
        if Sys.is_directory sdir then
          Array.iter
            (fun f ->
              if Filename.check_suffix f ".json" then begin
                (try
                   Sys.remove (Filename.concat sdir f);
                   incr removed
                 with Sys_error _ -> ())
              end)
            (Sys.readdir sdir))
      (Sys.readdir t.c_dir);
  Atomic.set t.c_evictions (Atomic.get t.c_evictions + !removed);
  !removed

let fill_metrics (reg : Darm_obs.Metrics_registry.t) t : unit =
  let module MR = Darm_obs.Metrics_registry in
  let s = stats t in
  let count name help v =
    MR.inc reg ~by:(float_of_int v) name;
    MR.help reg name help
  in
  count "darm_cache_hits_total" "Result-cache lookups served from disk"
    s.st_hits;
  count "darm_cache_misses_total"
    "Result-cache lookups that found no usable entry" s.st_misses;
  count "darm_cache_evictions_total" "Entries removed by clear"
    s.st_evictions;
  count "darm_cache_poison_evictions_total"
    "Corrupt/wrong-schema entries evicted on lookup" s.st_poison_evictions
