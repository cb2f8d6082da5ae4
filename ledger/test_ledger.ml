(* Checks of the layer ledger: its BENCHMARK.json declaration, the
   metrics it emits, its agreement with Experiment.run, and the shape of
   its trace. *)

module W = Ledger_lib.Workloads
module M = Ledger_lib.Measure
module L = Ledger_lib.Layers
module Json = Darm_obs.Json
module E = Darm_harness.Experiment
module Sim = Darm_sim.Simulator

let bench : Json.t Lazy.t =
  lazy
    (match Json.parse (Darm_obs.Fsio.read_file "../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing %S" k

let entries k =
  match field k (Lazy.force bench) with
  | Json.List l -> l
  | _ -> Alcotest.failf "%s is not a list" k

let str k j =
  match field k j with
  | Json.Str s -> s
  | _ -> Alcotest.failf "%s is not a string" k

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let test_declaration () =
  let count k hi =
    let n = List.length (entries k) in
    if n < 1 || n > hi then Alcotest.failf "%d %s (at most %d)" n k hi
  in
  count "workloads" 8;
  count "end_to_end" 16;
  count "per_layer" 128;
  let names =
    List.concat_map
      (fun k -> List.map (str "name") (entries k))
      [ "workloads"; "end_to_end"; "per_layer" ]
  in
  List.iter
    (fun n -> if not (valid_name n) then Alcotest.failf "bad name %S" n)
    names;
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun m ->
      match field "bound" m with
      | Json.Float b when b > 0. && b <= 0.25 -> ()
      | _ -> Alcotest.failf "%s: bound outside (0, 0.25]" (str "name" m))
    (entries "end_to_end");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> w.W.name) W.all)
    (List.map (str "name") (entries "workloads"))

let declared k = List.map (fun m -> (str "name" m, str "unit" m)) (entries k)

let point tag bs = (Option.get (Darm_kernels.Registry.find tag), bs)

(* the cheapest matrix points, about 0.1 s each *)
let traced_run =
  lazy
    (M.measure ~seconds:0. ~trace:true ~seed:1 (W.paper_sim_on [ point "DCT" 64 ]))

let test_emitted () =
  let r = Lazy.force traced_run in
  let units l = List.map (fun (n, u, _) -> (n, u)) l in
  Alcotest.(check (list (pair string string)))
    "end-to-end" (declared "end_to_end") (units M.end_to_end);
  Alcotest.(check (list (pair string string)))
    "per-layer" (declared "per_layer") (units M.per_layer);
  (* every declared metric is computed from a run without failing, and
     reads as a finite number *)
  let v = M.view r in
  List.iter
    (fun (n, _, f) ->
      if not (Float.is_finite (f r)) then Alcotest.failf "%s is not finite" n)
    M.end_to_end;
  List.iter
    (fun (n, _, f) ->
      if not (Float.is_finite (f v)) then Alcotest.failf "%s is not finite" n)
    M.per_layer

let test_trace () =
  let r = Lazy.force traced_run in
  Alcotest.(check (list string)) "no failures" [] (M.failures r);
  match r.M.trace with
  | None -> Alcotest.fail "traced run kept no trace"
  | Some tr ->
      Alcotest.(check bool) "balanced" true (Darm_obs.Trace.balanced tr);
      let layers = L.layers tr in
      Hashtbl.iter
        (fun name l ->
          if l.L.self_us < 0 then Alcotest.failf "negative self time in %s" name)
        layers;
      List.iter
        (fun name ->
          if not (Hashtbl.mem layers name) then Alcotest.failf "no %s span" name)
        [ "kernels.make"; "transforms.o3"; "core.pass"; "gpu_sim.hier_its" ]

let test_matches_experiment () =
  let points = [ point "DCT" 64; point "PCM" 64; point "LUD" 64 ] in
  let seed = 7 in
  let r = M.measure ~seconds:0. ~trace:false ~seed (W.paper_sim_on points) in
  Alcotest.(check (list string)) "ledger verdict" [] (M.failures r);
  let outcomes = (List.hd r.M.rounds).W.outcomes in
  List.iter
    (fun ((k, bs) as p) ->
      List.iter
        (fun (model, (config : Sim.config)) ->
          let e =
            E.run ~seed ~mem_model:config.Sim.mem_model
              ~reconvergence:config.Sim.reconvergence k ~block_size:bs
          in
          let label = W.point_label p in
          Alcotest.(check bool) (label ^ " correct") true e.E.correct;
          match
            List.find_opt
              (fun o -> o.W.label = label && o.W.model = model)
              outcomes
          with
          | None -> Alcotest.failf "%s %s: no ledger outcome" label model
          | Some o ->
              Alcotest.(check (pair int int))
                (label ^ " " ^ model ^ " cycles")
                (e.E.base.Darm_sim.Metrics.cycles, e.E.opt.Darm_sim.Metrics.cycles)
                (o.W.base_cycles, o.W.opt_cycles))
        W.models)
    points

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "BENCHMARK.json within limits" `Quick
            test_declaration;
          Alcotest.test_case "declared metrics are emitted" `Quick test_emitted;
          Alcotest.test_case "traced run is balanced" `Quick test_trace;
          Alcotest.test_case "cycles match Experiment.run" `Quick
            test_matches_experiment;
        ] );
    ]
