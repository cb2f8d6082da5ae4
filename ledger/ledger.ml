(* Command-line entry of the layer ledger.

     ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]
                [--record FILE]
     ledger.exe --compare A.jsonl B.jsonl

   A run prints its metrics one per line with their units, then one
   JSON result object as its last line, and exits 1 if any kernel or
   gate failed.  --trace 1 (or a FILE) makes it the traced run: it
   reports the per-layer metrics instead of the end-to-end ones and
   writes a Chrome trace to FILE (default .ledger/<workload>.trace.json).
   --record appends the workload, seed and result to FILE, for
   --compare. *)

module W = Ledger_lib.Workloads
module M = Ledger_lib.Measure
module L = Ledger_lib.Layers
module Json = Darm_obs.Json
module Fsio = Darm_obs.Fsio

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      exit 2)
    fmt

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : string option;
  record : string option;
}

let rec parse (o : opts) = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = w } rest
  | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed -> parse { o with seed } rest
      | None -> die "--seed expects an integer, got %S" n)
  | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds >= 0. -> parse { o with seconds } rest
      | _ -> die "--seconds expects a non-negative number, got %S" s)
  | "--trace" :: "0" :: rest -> parse { o with trace = None } rest
  | "--trace" :: path :: rest -> parse { o with trace = Some path } rest
  | "--record" :: path :: rest -> parse { o with record = Some path } rest
  | a :: _ -> die "unknown argument %S" a

(* writes the trace; returns the trace's own failures *)
let write_trace (path : string) (tr : Darm_obs.Trace.t) : string list =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Darm_obs.Export.write_file ~format:Darm_obs.Export.Chrome ~path tr;
  let negative =
    Hashtbl.fold
      (fun name l acc -> if l.L.self_us < 0 then name :: acc else acc)
      (L.layers tr) []
  in
  (if Darm_obs.Trace.balanced tr then []
   else [ "trace spans are not balanced" ])
  @ List.map (Printf.sprintf "negative self time in %s") negative

let print_self_times (r : M.run) (tr : Darm_obs.Trace.t) : unit =
  let nt = float_of_int (max 1 (List.length r.M.traced_rounds)) in
  let rows =
    Hashtbl.fold (fun name l acc -> (name, l) :: acc) (L.layers tr) []
    |> List.sort (fun (_, a) (_, b) -> compare b.L.self_us a.L.self_us)
  in
  print_endline "self time per traced round:";
  List.iter
    (fun (name, l) ->
      Printf.printf "  %-28s %12.3f ms  %8.0f call(s)\n" name
        (float_of_int l.L.self_us /. 1000. /. nt)
        (float_of_int l.L.calls /. nt))
    rows

let run (o : opts) : unit =
  let w =
    match W.find o.workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (%s)" o.workload
          (String.concat ", " (List.map (fun w -> w.W.name) W.all))
  in
  let r = M.measure ~seconds:o.seconds ~trace:(o.trace <> None) ~seed:o.seed w in
  let trace_failures =
    match (o.trace, r.M.trace) with
    | Some path, Some tr -> write_trace path tr
    | _ -> []
  in
  let failures = M.failures r @ trace_failures in
  let metrics =
    match r.M.trace with
    | None -> List.map (fun (n, u, f) -> (n, u, f r)) M.end_to_end
    | Some _ ->
        let v = M.view r in
        List.map (fun (n, u, f) -> (n, u, f v)) M.per_layer
  in
  let walls l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  Printf.printf
    "%s seed %d: host speed %.3f of nominal; round walls (s) untraced [%s] \
     traced [%s], plain clock [%s]\n"
    w.W.name o.seed (L.host_speed ()) (walls r.M.walls)
    (walls r.M.traced_walls) (walls r.M.raw_walls);
  List.iteri
    (fun i f -> if i < 20 then Printf.printf "FAILED %s\n" f)
    failures;
  Option.iter (print_self_times r) r.M.trace;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-40s %14.6g %s\n" name v unit)
    metrics;
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (failures = []));
        ("attempted", Json.Int (M.attempted r + List.length trace_failures));
        ("failed", Json.Int (List.length failures));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, unit, v) ->
                 ( name,
                   Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]
                 ))
               metrics) );
      ]
  in
  Option.iter
    (fun path ->
      let oc =
        open_out_gen
          [ Open_wronly; Open_creat; Open_append; Open_binary ]
          0o644 path
      in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str w.W.name);
                ("seed", Json.Int o.seed);
                ("traced", Json.Bool (o.trace <> None));
                ("result", result);
              ])
        ^ "\n");
      close_out oc)
    o.record;
  print_endline (Json.to_string result);
  exit (if failures = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)

(* Python's statistics.quantiles(xs, n=4), the exclusive method *)
let quartiles (xs : float list) : float * float * float =
  let d = Array.of_list (List.sort compare xs) in
  let n = Array.length d in
  if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let parse_json (what : string) (text : string) : Json.t =
  match Json.parse text with Ok j -> j | Error e -> die "%s: %s" what e

let str j k =
  match Json.member k j with
  | Some (Json.Str s) -> s
  | _ -> die "missing string field %S" k

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> die "expected a number"

let read path = try Fsio.read_file path with Sys_error e -> die "%s" e

(* (workload, metric, value) of every untraced record in [path] *)
let load_records (path : string) : (string * string * float) list =
  String.split_on_char '\n' (read path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.concat_map (fun line ->
         let j = parse_json path line in
         if Json.member "traced" j = Some (Json.Bool true) then []
         else
           match Option.bind (Json.member "result" j) (Json.member "metrics") with
           | Some (Json.Obj ms) ->
               List.filter_map
                 (fun (name, m) ->
                   Option.map
                     (fun v -> (str j "workload", name, num v))
                     (Json.member "value" m))
                 ms
           | _ -> die "%s: a record without result metrics" path)

let compare_runs (a : string) (b : string) : unit =
  let bench = parse_json "BENCHMARK.json" (read "BENCHMARK.json") in
  let list k =
    match Json.member k bench with
    | Some (Json.List l) -> l
    | _ -> die "BENCHMARK.json: no %s list" k
  in
  let ra = load_records a and rb = load_records b in
  let values rs w m =
    List.filter_map
      (fun (w', m', v) -> if w = w' && m = m' then Some v else None)
      rs
  in
  let out_of_bound = ref 0 in
  List.iter
    (fun wl ->
      let w = str wl "name" in
      List.iter
        (fun metric ->
          let m = str metric "name" in
          let bound =
            match Json.member "bound" metric with Some b -> num b | None -> 0.
          in
          match (values ra w m, values rb w m) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let a1, ma, a3 = quartiles va and b1, mb, b3 = quartiles vb in
              let worse =
                if ma = 0. then 0.
                else if str metric "better" = "lower" then (mb -. ma) /. ma
                else (ma -. mb) /. ma
              in
              let ok = worse <= bound in
              if not ok then incr out_of_bound;
              Printf.printf
                "%-14s %-22s A %-11.5g [%.5g, %.5g] n=%-3d B %-11.5g [%.5g, \
                 %.5g] n=%-3d worse %+6.2f%% (bound %.0f%%) %s\n"
                w m ma a1 a3 (List.length va) mb b1 b3 (List.length vb)
                (worse *. 100.) (bound *. 100.)
                (if ok then "ok" else "OUT OF BOUND"))
        (list "end_to_end"))
    (list "workloads");
  exit (if !out_of_bound = 0 then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; a; b ] -> compare_runs a b
  | args ->
      let o =
        parse
          { workload = ""; seed = 1; seconds = 10.; trace = None; record = None }
          args
      in
      if o.workload = "" then die "missing --workload (or --compare A B)";
      let default = Printf.sprintf ".ledger/%s.trace.json" o.workload in
      run
        {
          o with
          trace = Option.map (fun p -> if p = "1" then default else p) o.trace;
        }
