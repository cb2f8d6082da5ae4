(** Corpus entries: provenance header + printed IR, one file per repro. *)

type expectation = Pass | Fail of { stage : string; kind : string }

type entry = {
  en_name : string;
  en_seed : int;
  en_block_size : int;
  en_n : int;
  en_input_seed : int;
  en_expect : expectation;
  en_note : string option;
  en_text : string;
}

let magic = "darm-corpus-v1"

let expectation_to_string = function
  | Pass -> "pass"
  | Fail { stage; kind } -> Printf.sprintf "fail/%s/%s" stage kind

let expectation_of_string s =
  match String.split_on_char '/' s with
  | [ "pass" ] -> Ok Pass
  | "fail" :: stage :: (_ :: _ as rest) ->
      Ok (Fail { stage; kind = String.concat "/" rest })
  | _ -> Error (Printf.sprintf "bad expectation %S" s)

let to_string (e : entry) : string =
  let buf = Buffer.create (String.length e.en_text + 256) in
  Buffer.add_string buf
    (Printf.sprintf
       "; %s name=%s seed=%d input_seed=%d block_size=%d n=%d expect=%s\n"
       magic e.en_name e.en_seed e.en_input_seed e.en_block_size e.en_n
       (expectation_to_string e.en_expect));
  (match e.en_note with
  | Some note -> Buffer.add_string buf (Printf.sprintf "; note: %s\n" note)
  | None -> ());
  Buffer.add_string buf e.en_text;
  if e.en_text = "" || e.en_text.[String.length e.en_text - 1] <> '\n' then
    Buffer.add_char buf '\n';
  Buffer.contents buf

let parse_header (line : string) : ((string * string) list, string) result =
  let line = String.trim line in
  if not (String.length line > 1 && line.[0] = ';') then
    Error "corpus file must start with a '; darm-corpus-v1 ...' header"
  else
    let fields =
      String.sub line 1 (String.length line - 1)
      |> String.trim |> String.split_on_char ' '
      |> List.filter (fun s -> s <> "")
    in
    match fields with
    | m :: rest when m = magic ->
        let kvs =
          List.filter_map
            (fun field ->
              match String.index_opt field '=' with
              | None -> None
              | Some i ->
                  Some
                    ( String.sub field 0 i,
                      String.sub field (i + 1)
                        (String.length field - i - 1) ))
            rest
        in
        Ok kvs
    | m :: _ -> Error (Printf.sprintf "unknown corpus magic %S" m)
    | [] -> Error "empty corpus header"

let of_string (s : string) : (entry, string) result =
  match String.index_opt s '\n' with
  | None -> Error "corpus file has no body"
  | Some nl -> (
      let header = String.sub s 0 nl in
      let rest = String.sub s (nl + 1) (String.length s - nl - 1) in
      match parse_header header with
      | Error e -> Error e
      | Ok kvs -> (
          let find k = List.assoc_opt k kvs in
          let int_field k =
            match find k with
            | None -> Error (Printf.sprintf "missing field %s" k)
            | Some v -> (
                match int_of_string_opt v with
                | Some i -> Ok i
                | None -> Error (Printf.sprintf "bad integer %s=%S" k v))
          in
          let ( let* ) = Result.bind in
          let* name =
            match find "name" with
            | Some n when n <> "" -> Ok n
            | _ -> Error "missing field name"
          in
          let* seed = int_field "seed" in
          let* input_seed = int_field "input_seed" in
          let* block_size = int_field "block_size" in
          let* n = int_field "n" in
          let* expect =
            match find "expect" with
            | None -> Error "missing field expect"
            | Some v -> expectation_of_string v
          in
          (* optional "; note: ..." lines before the kernel *)
          let note = ref None in
          let lines = String.split_on_char '\n' rest in
          let rec strip = function
            | l :: tl when String.trim l = "" -> strip tl
            | l :: tl
              when String.length (String.trim l) >= 7
                   && String.sub (String.trim l) 0 7 = "; note:" ->
                let t = String.trim l in
                note := Some (String.trim (String.sub t 7 (String.length t - 7)));
                strip tl
            | ls -> ls
          in
          let text = String.concat "\n" (strip lines) in
          if String.trim text = "" then Error "corpus file has no kernel body"
          else
            Ok
              {
                en_name = name;
                en_seed = seed;
                en_block_size = block_size;
                en_n = n;
                en_input_seed = input_seed;
                en_expect = expect;
                en_note = !note;
                en_text = text;
              }))

let load_file (path : string) : (entry, string) result =
  match Darm_obs.Fsio.read path with
  | Error e -> Error e
  | Ok s -> (
      match of_string s with
      | Ok e -> Ok e
      | Error e -> Error (Printf.sprintf "%s: %s" path e))

let save ~dir (e : entry) : string =
  Darm_obs.Fsio.mkdir_p dir;
  let path = Filename.concat dir (e.en_name ^ ".ll") in
  Darm_obs.Fsio.write_atomic ~path (to_string e);
  path

let load_dir (dir : string) : (string * (entry, string) result) list =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ll")
    |> List.sort String.compare
  in
  List.map (fun f -> (f, load_file (Filename.concat dir f))) files

let replay (e : entry) : (unit, string) result =
  let subject =
    Oracle.subject_of_text ~name:e.en_name ~block_size:e.en_block_size
      ~n:e.en_n ~input_seed:e.en_input_seed e.en_text
  in
  let failures = Oracle.run_subject subject in
  match (e.en_expect, failures) with
  | Pass, [] -> Ok ()
  | Pass, fl :: _ ->
      Error
        (Printf.sprintf "expected pass but: %s" (Oracle.failure_to_string fl))
  | Fail { stage; kind }, [] ->
      Error
        (Printf.sprintf "expected failure %s/%s but the kernel passed" stage
           kind)
  | Fail { stage; kind }, fls ->
      let want = stage ^ "/" ^ kind in
      if List.exists (fun fl -> Oracle.failure_key fl = want) fls then Ok ()
      else
        Error
          (Printf.sprintf "expected failure %s but saw: %s" want
             (String.concat "; " (List.map Oracle.failure_key fls)))
