(* Instrumentation of the ledger: a monotonic clock, a host-speed
   normalized clock, spans recorded around each call into a layer, and
   integer counters.

   Spans go to a Darm_obs.Trace buffer only while [tracer] holds one
   (the traced rounds).  Timestamps are monotonic microseconds since
   process start, so a stepped wall clock can neither stretch nor
   reverse a span. *)

module Trace = Darm_obs.Trace

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

let seconds_since (t0 : int) : float = float_of_int (now_ns () - t0) *. 1e-9

(* Host-speed normalization.

   The shared virtual machines this runs on change speed by up to 2x
   for seconds at a time, which would swamp any regression bound.  A
   fixed probe loop owned by the ledger, and so identical on every
   commit, is timed between layer calls at most every [probe_every_ns]
   and at every [work_ns] call.  The time between two probes is scaled
   by [probe_nominal_ns] over their mean duration, so [work_ns] reads
   as time on a host that runs the probe at nominal speed.

   The probe is a dependent pointer chase through a 128 KiB table.  In
   a three-minute run alternating it with simulator and checker work,
   its duration tracked about half of their swings (correlation 0.5 to
   0.7); a chase through a 16 MiB table tracked them worse. *)

let probe_cells = 1 lsl 14

let probe_table =
  Array.init probe_cells (fun i -> ((i * 40505) + 1) land (probe_cells - 1))

(* the minimum of three short runs: an interrupt lands in one of them,
   a slow phase slows all three *)
let probe () : int =
  let once () =
    let t0 = now_ns () in
    let j = ref 0 and acc = ref 0 in
    for _ = 1 to 70_000 do
      j := Array.unsafe_get probe_table !j;
      acc := ((!acc * 31) + !j) land max_int
    done;
    ignore (Sys.opaque_identity !acc);
    now_ns () - t0
  in
  min (once ()) (min (once ()) (once ()))

let probe_nominal_ns = 300_000.

let probe_every_ns = 100_000_000

let last_probe = ref (probe ())

let segment_start = ref (now_ns ())

let normalized = ref 0.

let raw = ref 0

let reprobe () : unit =
  let t = now_ns () in
  let c = probe () in
  let seg = t - !segment_start in
  let mean = float_of_int (c + !last_probe) /. 2. in
  normalized := !normalized +. (float_of_int seg *. probe_nominal_ns /. mean);
  raw := !raw + seg;
  last_probe := c;
  segment_start := now_ns ()

(** Normalized nanoseconds of work so far, probe time excluded. *)
let work_ns () : float =
  reprobe ();
  !normalized

(** Host speed over the process so far: nominal time per real time. *)
let host_speed () : float =
  if !raw = 0 then 1. else !normalized /. float_of_int !raw

let origin = now_ns ()

let tracer : Trace.t option ref = ref None

let stamp () = (now_ns () - origin) / 1000

let depth = ref 0

(** [f] as one call into layer [name].  A due probe runs before an
    outermost span, never inside one, so probe time stays out of every
    layer's self time. *)
let span (name : string) (f : unit -> 'a) : 'a =
  if !depth = 0 && now_ns () - !segment_start >= probe_every_ns then
    reprobe ();
  incr depth;
  Option.iter (fun tr -> Trace.begin_span tr ~ts:(stamp ()) name) !tracer;
  Fun.protect f ~finally:(fun () ->
      decr depth;
      Option.iter (fun tr -> Trace.end_span tr ~ts:(stamp ()) name) !tracer)

(* Deterministic per-round counts (simulated counters, meld counts,
   cache traffic).  Two rounds of the same work must end with equal
   counters; that equality is the ledger's determinism gate. *)
let counters : (string, int) Hashtbl.t = Hashtbl.create 64

let count ?(by = 1) (name : string) : unit =
  Hashtbl.replace counters name
    (by + Option.value ~default:0 (Hashtbl.find_opt counters name))

let take_counters () : (string * int) list =
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [] in
  Hashtbl.reset counters;
  List.sort compare l

type layer = {
  mutable self_us : int;  (** span time not covered by child spans *)
  mutable calls : int;
  mutable durations_us : int list;  (** whole spans, newest first *)
}

(* Self time per span name.  The ledger records from one domain, so all
   spans share one track and nest as a single stack. *)
let layers (tr : Trace.t) : (string, layer) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let stack = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      match (ev.Trace.ev_ph, !stack) with
      | Trace.B, st -> stack := (ev.Trace.ev_ts, ref 0) :: st
      | Trace.E, (t0, child) :: rest ->
          let d = ev.Trace.ev_ts - t0 in
          let l =
            match Hashtbl.find_opt tbl ev.Trace.ev_name with
            | Some l -> l
            | None ->
                let l = { self_us = 0; calls = 0; durations_us = [] } in
                Hashtbl.add tbl ev.Trace.ev_name l;
                l
          in
          l.self_us <- l.self_us + d - !child;
          l.calls <- l.calls + 1;
          l.durations_us <- d :: l.durations_us;
          (match rest with
          | (_, parent) :: _ -> parent := !parent + d
          | [] -> ());
          stack := rest
      | _ -> ())
    (Trace.events tr);
  tbl
