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
  (* lifetime telemetry of this handle; atomics because batch pool
     domains share one handle *)
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_evictions : int Atomic.t;
  c_poison : int Atomic.t;
}

let schema = "darm-batchres-v1"

let default_dir = ".darm-cache"

let create ?(dir = default_dir) () =
  {
    c_dir = dir;
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


(* Length-prefix every part so ["ab"; "c"] and ["a"; "bc"] hash apart,
   and fold the schema version in so a payload format bump is a whole
   new key space. *)
let key _ (parts : string list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b schema;
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

(* the parsed payload, when it carries the cache's schema *)
let parse_payload (bytes : string) : (Json.t, string) result =
  Result.bind (Json.parse bytes) (fun j ->
      match Json.member "schema" j with
      | Some (Json.Str s) when s = schema -> Ok j
      | _ -> Error "schema mismatch")

let find t ~key ~decode =
  let path = entry_path t ~key in
  (* missing, unreadable, or truncated mid-read by a concurrent
     writer: a miss, never a crash *)
  match Fsio.read path with
  | Error _ ->
      Atomic.incr t.c_misses;
      None
  | Ok bytes -> (
      match Result.bind (parse_payload bytes) decode with
      | Ok v ->
          Atomic.incr t.c_hits;
          Some (bytes, v)
      | Error _ ->
          (* corrupt, truncated, wrong-schema or undecodable bytes:
             evict the poison file so the next store rewrites it,
             instead of re-parsing the same garbage on every lookup
             forever *)
          (try Sys.remove path with Sys_error _ -> ());
          Atomic.incr t.c_poison;
          Atomic.incr t.c_misses;
          None)

let store t ~key payload =
  if Result.is_error (parse_payload payload) then
    invalid_arg
      (Printf.sprintf "Result_cache.store: payload is not valid %S JSON"
         schema);
  let path = entry_path t ~key in
  Fsio.mkdir_p (Filename.dirname path);
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
