(* Typed metrics registry with deterministic snapshots and JSON /
   Prometheus exposition.  See metrics_registry.mli for the model. *)

type labels = (string * string) list

type kind = Counter | Gauge | Histogram

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* duplicate keys: last binding wins, then sort by key for a canonical
   series identity *)
let normalize_labels (ls : labels) : labels =
  let tbl = Hashtbl.create (List.length ls) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) ls;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* one time series: a (name, labels) cell *)
type cell = {
  mutable c_value : float;  (* counter/gauge value; histogram sum *)
  mutable c_count : int;  (* histogram samples *)
  c_bounds : float array;  (* histogram upper bounds, [||] otherwise *)
  c_bucket_counts : int array;  (* per-bound non-cumulative counts *)
}

type fam = {
  fam_kind : kind;
  mutable fam_help : string;
  fam_cells : (labels, cell) Hashtbl.t;
}

type t = { fams : (string, fam) Hashtbl.t }

let create () : t = { fams = Hashtbl.create 16 }

let default_buckets =
  [ 1.; 2.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 2500.; 5000. ]

let family (t : t) (name : string) (kind : kind) : fam =
  match Hashtbl.find_opt t.fams name with
  | Some f ->
      if f.fam_kind <> kind then
        invalid_arg
          (Printf.sprintf
             "Metrics_registry: %S is a %s, used as a %s" name
             (kind_to_string f.fam_kind) (kind_to_string kind));
      f
  | None ->
      let f = { fam_kind = kind; fam_help = ""; fam_cells = Hashtbl.create 4 } in
      Hashtbl.replace t.fams name f;
      f

let cell (f : fam) (labels : labels) (bounds : float array) : cell =
  let labels = normalize_labels labels in
  match Hashtbl.find_opt f.fam_cells labels with
  | Some c -> c
  | None ->
      let c =
        {
          c_value = 0.;
          c_count = 0;
          c_bounds = bounds;
          c_bucket_counts = Array.make (Array.length bounds) 0;
        }
      in
      Hashtbl.replace f.fam_cells labels c;
      c

let inc (t : t) ?(labels = []) ?(by = 1.) (name : string) : unit =
  if by < 0. then
    invalid_arg
      (Printf.sprintf "Metrics_registry.inc: counter %S decremented by %g"
         name by);
  let c = cell (family t name Counter) labels [||] in
  c.c_value <- c.c_value +. by

let set (t : t) ?(labels = []) (name : string) (v : float) : unit =
  let c = cell (family t name Gauge) labels [||] in
  c.c_value <- v

let observe (t : t) ?(labels = []) ?(buckets = default_buckets)
    (name : string) (v : float) : unit =
  let bounds =
    List.sort_uniq compare (List.filter Float.is_finite buckets)
    |> Array.of_list
  in
  let c = cell (family t name Histogram) labels bounds in
  c.c_value <- c.c_value +. v;
  c.c_count <- c.c_count + 1;
  (* first finite bound >= v; a sample above every bound lands only in
     the implicit +inf bucket *)
  let n = Array.length c.c_bounds in
  let rec place i =
    if i < n then
      if v <= c.c_bounds.(i) then
        c.c_bucket_counts.(i) <- c.c_bucket_counts.(i) + 1
      else place (i + 1)
  in
  place 0

let help (t : t) (name : string) (text : string) : unit =
  match Hashtbl.find_opt t.fams name with
  | Some f -> if f.fam_help = "" then f.fam_help <- text
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type series = {
  s_labels : labels;
  s_value : float;
  s_count : int;
  s_buckets : (float * int) list;
}

type family = {
  f_name : string;
  f_kind : kind;
  f_help : string;
  f_series : series list;
}

let compare_labels (a : labels) (b : labels) : int =
  compare a b

let snapshot (t : t) : family list =
  Hashtbl.fold (fun name f acc -> (name, f) :: acc) t.fams []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, f) ->
         let series =
           Hashtbl.fold (fun ls c acc -> (ls, c) :: acc) f.fam_cells []
           |> List.sort (fun (a, _) (b, _) -> compare_labels a b)
           |> List.map (fun (ls, c) ->
                  let buckets =
                    if f.fam_kind <> Histogram then []
                    else begin
                      (* cumulative counts, +inf bucket last *)
                      let acc = ref 0 in
                      let finite =
                        Array.to_list
                          (Array.mapi
                             (fun i b ->
                               acc := !acc + c.c_bucket_counts.(i);
                               (b, !acc))
                             c.c_bounds)
                      in
                      finite @ [ (infinity, c.c_count) ]
                    end
                  in
                  {
                    s_labels = ls;
                    s_value = c.c_value;
                    s_count = c.c_count;
                    s_buckets = buckets;
                  })
         in
         {
           f_name = name;
           f_kind = f.fam_kind;
           f_help = f.fam_help;
           f_series = series;
         })

let cardinality (t : t) : int =
  Hashtbl.fold (fun _ f acc -> acc + Hashtbl.length f.fam_cells) t.fams 0

let find (t : t) ?(labels = []) (name : string) : float option =
  match Hashtbl.find_opt t.fams name with
  | None -> None
  | Some f ->
      Option.map
        (fun c -> c.c_value)
        (Hashtbl.find_opt f.fam_cells (normalize_labels labels))

let find_series (fams : family list) ?(labels = []) (name : string) :
    series option =
  let labels = normalize_labels labels in
  match List.find_opt (fun f -> f.f_name = name) fams with
  | None -> None
  | Some f -> List.find_opt (fun s -> s.s_labels = labels) f.f_series

(* ------------------------------------------------------------------ *)
(* Percentiles *)

(* Prometheus-style histogram_quantile: find the first cumulative
   bucket covering rank = q * count and interpolate linearly inside it
   (lower edge 0 for the first bucket).  The +inf bucket has no upper
   edge, so a quantile landing there reports the highest finite bound
   — or the mean when the histogram has no finite bounds at all. *)
let percentile (s : series) (q : float) : float option =
  if s.s_count = 0 || s.s_buckets = [] then None
  else
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int s.s_count in
    let rec go ~lower ~prev = function
      | [] -> None
      | (le, cum) :: rest ->
          if cum = 0 || float_of_int cum < rank then
            go
              ~lower:(if Float.is_finite le then le else lower)
              ~prev:cum rest
          else if not (Float.is_finite le) then
            Some
              (if prev > 0 || lower > 0. then lower
               else s.s_value /. float_of_int s.s_count)
          else
            let in_bucket = cum - prev in
            if in_bucket <= 0 then Some le
            else
              let frac =
                (rank -. float_of_int prev) /. float_of_int in_bucket
              in
              Some (lower +. ((le -. lower) *. Float.max 0. (Float.min 1. frac)))
    in
    go ~lower:0. ~prev:0 s.s_buckets

(* ------------------------------------------------------------------ *)
(* Exposition *)

let labels_json (ls : labels) : Json.t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ls)

let series_json (kind : kind) (s : series) : Json.t =
  Json.Obj
    (("labels", labels_json s.s_labels)
     ::
     (match kind with
     | Counter | Gauge -> [ ("value", Json.Float s.s_value) ]
     | Histogram ->
         [
           ("sum", Json.Float s.s_value);
           ("count", Json.Int s.s_count);
           ( "buckets",
             Json.List
               (List.map
                  (fun (le, n) ->
                    Json.Obj
                      [
                        ( "le",
                          if Float.is_finite le then Json.Float le
                          else Json.Str "+Inf" );
                        ("count", Json.Int n);
                      ])
                  s.s_buckets) );
         ]))

let to_json (fams : family list) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str "darm-metrics-v1");
      ( "families",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 ([
                    ("name", Json.Str f.f_name);
                    ("kind", Json.Str (kind_to_string f.f_kind));
                  ]
                 @ (if f.f_help = "" then []
                    else [ ("help", Json.Str f.f_help) ])
                 @ [
                     ( "series",
                       Json.List (List.map (series_json f.f_kind) f.f_series)
                     );
                   ]))
             fams) );
    ]

(* Prometheus text format 0.0.4.  Metric and label names pass through
   unchanged (callers use [a-zA-Z_:][a-zA-Z0-9_:]* names); label values
   escape backslash, double quote and newline. *)
let prom_escape (s : string) : string =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels (b : Buffer.t) (ls : labels) : unit =
  if ls <> [] then begin
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        Buffer.add_string b (prom_escape v);
        Buffer.add_char b '"')
      ls;
    Buffer.add_char b '}'
  end

let prom_sample (b : Buffer.t) (name : string) (ls : labels) (v : string) :
    unit =
  Buffer.add_string b name;
  prom_labels b ls;
  Buffer.add_char b ' ';
  Buffer.add_string b v;
  Buffer.add_char b '\n'

let le_repr (le : float) : string =
  if Float.is_finite le then Json.float_repr le else "+Inf"

(* ------------------------------------------------------------------ *)
(* Parsing (the inverse of [to_json], for snapshot consumers) *)

let ( let* ) = Result.bind

let kind_of_string = function
  | "counter" -> Ok Counter
  | "gauge" -> Ok Gauge
  | "histogram" -> Ok Histogram
  | other -> Error (Printf.sprintf "unknown metric kind %S" other)

let num_of_json = function
  | Json.Int i -> Ok (float_of_int i)
  | Json.Float f -> Ok f
  | _ -> Error "expected a number"

let labels_of_json (j : Json.t) : (labels, string) result =
  match j with
  | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match v with
          | Json.Str s -> Ok ((k, s) :: acc)
          | _ -> Error (Printf.sprintf "label %S is not a string" k))
        (Ok []) fields
      |> Result.map List.rev
  | _ -> Error "\"labels\" is not an object"

let bucket_of_json (j : Json.t) : (float * int, string) result =
  let* le =
    match Json.member "le" j with
    | Some (Json.Str "+Inf") -> Ok infinity
    | Some n -> num_of_json n
    | None -> Error "bucket missing \"le\""
  in
  let* count =
    match Json.member "count" j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error "bucket missing int \"count\""
  in
  Ok (le, count)

let series_of_json (kind : kind) (j : Json.t) : (series, string) result =
  let* s_labels =
    match Json.member "labels" j with
    | Some l -> labels_of_json l
    | None -> Error "series missing \"labels\""
  in
  match kind with
  | Counter | Gauge ->
      let* s_value =
        match Json.member "value" j with
        | Some n -> num_of_json n
        | None -> Error "series missing \"value\""
      in
      Ok { s_labels; s_value; s_count = 0; s_buckets = [] }
  | Histogram ->
      let* s_value =
        match Json.member "sum" j with
        | Some n -> num_of_json n
        | None -> Error "histogram series missing \"sum\""
      in
      let* s_count =
        match Json.member "count" j with
        | Some (Json.Int i) -> Ok i
        | _ -> Error "histogram series missing int \"count\""
      in
      let* s_buckets =
        match Json.member "buckets" j with
        | Some (Json.List bs) ->
            List.fold_left
              (fun acc b ->
                let* acc = acc in
                let* bucket = bucket_of_json b in
                Ok (bucket :: acc))
              (Ok []) bs
            |> Result.map List.rev
        | _ -> Error "histogram series missing list \"buckets\""
      in
      Ok { s_labels; s_value; s_count; s_buckets }

let family_of_json (j : Json.t) : (family, string) result =
  let* f_name =
    match Json.member "name" j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "family missing string \"name\""
  in
  let* f_kind =
    match Json.member "kind" j with
    | Some (Json.Str s) -> kind_of_string s
    | _ -> Error (Printf.sprintf "family %S missing string \"kind\"" f_name)
  in
  let f_help =
    match Json.member "help" j with Some (Json.Str s) -> s | _ -> ""
  in
  let* f_series =
    match Json.member "series" j with
    | Some (Json.List ss) ->
        List.fold_left
          (fun acc s ->
            let* acc = acc in
            let* series = series_of_json f_kind s in
            Ok (series :: acc))
          (Ok []) ss
        |> Result.map List.rev
    | _ -> Error (Printf.sprintf "family %S missing list \"series\"" f_name)
  in
  Ok { f_name; f_kind; f_help; f_series }

let of_json (j : Json.t) : (family list, string) result =
  match Json.member "schema" j with
  | Some (Json.Str "darm-metrics-v1") ->
      Json.get_list family_of_json j "families"
  | Some (Json.Str other) ->
      Error
        (Printf.sprintf "schema mismatch: expected \"darm-metrics-v1\", got %S"
           other)
  | _ -> Error "missing string field \"schema\""

let to_prometheus (fams : family list) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
      if f.f_help <> "" then begin
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" f.f_name (prom_escape f.f_help))
      end;
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" f.f_name (kind_to_string f.f_kind));
      List.iter
        (fun s ->
          match f.f_kind with
          | Counter | Gauge ->
              prom_sample b f.f_name s.s_labels (Json.float_repr s.s_value)
          | Histogram ->
              List.iter
                (fun (le, n) ->
                  prom_sample b (f.f_name ^ "_bucket")
                    (s.s_labels @ [ ("le", le_repr le) ])
                    (string_of_int n))
                s.s_buckets;
              prom_sample b (f.f_name ^ "_sum") s.s_labels
                (Json.float_repr s.s_value);
              prom_sample b (f.f_name ^ "_count") s.s_labels
                (string_of_int s.s_count))
        f.f_series)
    fams;
  Buffer.contents b
