(* Trace serialization to JSONL and Chrome trace-event JSON. *)

type format = Jsonl | Chrome

let ph_to_string : Trace.phase -> string = function
  | Trace.B -> "B"
  | Trace.E -> "E"
  | Trace.I -> "i"
  | Trace.C -> "C"

let ph_of_string = function
  | "B" -> Ok Trace.B
  | "E" -> Ok Trace.E
  | "i" | "I" | "n" -> Ok Trace.I
  | "C" -> Ok Trace.C
  | other -> Error (Printf.sprintf "unknown phase %S" other)

let fields_to_json (fields : (string * Trace.value) list) : Json.t =
  Json.Obj (List.map (fun (k, v) -> (k, Trace.value_to_json v)) fields)

let event_to_json (ev : Trace.event) : Json.t =
  Json.Obj
    ([
       ("name", Json.Str ev.Trace.ev_name);
       ("cat", Json.Str ev.Trace.ev_cat);
       ("ph", Json.Str (ph_to_string ev.Trace.ev_ph));
       ("ts", Json.Int ev.Trace.ev_ts);
       ("pid", Json.Int ev.Trace.ev_pid);
       ("tid", Json.Int ev.Trace.ev_tid);
       ("args", fields_to_json ev.Trace.ev_args);
     ]
    (* the envelope only when set, so events without one keep their
       bytes *)
    @
    if ev.Trace.ev_rt = [] then []
    else [ ("rt", fields_to_json ev.Trace.ev_rt) ])

let event_of_json (j : Json.t) : (Trace.event, string) result =
  let ( let* ) = Result.bind in
  let str_field k =
    match Json.member k j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "event missing string field %S" k)
  in
  let int_field k =
    match Json.member k j with
    | Some (Json.Int n) -> Ok n
    | _ -> Error (Printf.sprintf "event missing integer field %S" k)
  in
  let* name = str_field "name" in
  let* cat = str_field "cat" in
  let* ph = Result.bind (str_field "ph") ph_of_string in
  let* ts = int_field "ts" in
  let* pid = int_field "pid" in
  let* tid = int_field "tid" in
  let scalars key =
    match Json.member key j with
    | None -> Ok []
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            let* v =
              match v with
              | Json.Str s -> Ok (Trace.Str s)
              | Json.Int n -> Ok (Trace.Int n)
              | Json.Float x -> Ok (Trace.Float x)
              | Json.Bool b -> Ok (Trace.Bool b)
              | _ -> Error (Printf.sprintf "%s %S is not a scalar" key k)
            in
            Ok ((k, v) :: acc))
          (Ok []) fields
        |> Result.map List.rev
    | Some _ -> Error (Printf.sprintf "%s is not an object" key)
  in
  let* args = scalars "args" in
  let* rt = scalars "rt" in
  Ok
    {
      Trace.ev_name = name;
      ev_cat = cat;
      ev_ph = ph;
      ev_ts = ts;
      ev_pid = pid;
      ev_tid = tid;
      ev_args = args;
      ev_rt = rt;
    }

let to_jsonl (t : Trace.t) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Json.to_buffer b (event_to_json ev);
      Buffer.add_char b '\n')
    (Trace.events t);
  Buffer.contents b

let to_chrome (t : Trace.t) : string =
  let b = Buffer.create 4096 in
  Json.to_buffer b
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map event_to_json (Trace.events t)));
         ("displayTimeUnit", Json.Str "ms");
       ]);
  Buffer.add_char b '\n';
  Buffer.contents b

let events_of_jsonl ~name (s : string) : (Trace.event list, string) result =
  Json.parse_lines ~name event_of_json s

let jsonl_sink ~(path : string) : (Trace.event -> unit) * (unit -> unit) =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644
      path
  in
  let write ev =
    output_string oc (Json.to_string (event_to_json ev));
    output_char oc '\n';
    flush oc
  in
  (write, fun () -> close_out_noerr oc)

(* validate the written bytes by re-reading them: the parse must
   succeed and yield at least one event *)
let validate (format : format) (path : string) (contents : string) : unit =
  let count =
    match format with
    | Jsonl -> (
        match events_of_jsonl ~name:path contents with
        | Ok evs -> List.length evs
        | Error msg -> failwith ("invalid JSONL trace: " ^ msg))
    | Chrome -> (
        match Json.parse contents with
        | Error msg ->
            failwith (Printf.sprintf "%s: invalid JSON: %s" path msg)
        | Ok j -> (
            match Json.member "traceEvents" j with
            | Some (Json.List evs) ->
                List.iter
                  (fun e ->
                    match event_of_json e with
                    | Ok _ -> ()
                    | Error msg ->
                        failwith
                          (Printf.sprintf "%s: malformed trace event: %s" path
                             msg))
                  evs;
                List.length evs
            | _ ->
                failwith
                  (Printf.sprintf "%s: missing traceEvents array" path)))
  in
  if count = 0 then failwith (Printf.sprintf "%s: trace is empty" path)

let write_file ~(format : format) ~(path : string) (t : Trace.t) : unit =
  let contents = match format with Jsonl -> to_jsonl t | Chrome -> to_chrome t in
  (* binary + temp-file + rename: the byte-identity guarantee must
     survive any platform's text mode, and a failed write (including a
     failed validation of the re-read bytes) must leave a pre-existing
     trace file untouched rather than torn *)
  Fsio.write_atomic ~validate:(validate format path) ~path contents
