(* Atomic metrics snapshot files.  See snapshot.mli. *)

module MR = Metrics_registry

let prom_path base = base ^ ".prom"
let json_path base = base ^ ".json"

let validate_json (bytes : string) : unit =
  match Json.parse bytes with
  | Error e -> failwith (Printf.sprintf "snapshot JSON does not parse: %s" e)
  | Ok j -> (
      match MR.of_json j with
      | Ok _ -> ()
      | Error e -> failwith (Printf.sprintf "snapshot JSON is invalid: %s" e))

let write ~base (fams : MR.family list) : unit =
  Fsio.write_atomic ~path:(prom_path base) (MR.to_prometheus fams);
  Fsio.write_atomic ~validate:validate_json ~path:(json_path base)
    (Json.to_string (MR.to_json fams) ^ "\n")

let read_json ~path : (MR.family list, string) result =
  match Fsio.read path with
  | Error e -> Error e
  | Ok bytes -> (
      match Json.parse bytes with
      | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" path e)
      | Ok j -> (
          match MR.of_json j with
          | Ok fams -> Ok fams
          | Error e -> Error (Printf.sprintf "%s: %s" path e)))
