(* Structured tracing buffers.  See trace.mli for the event model, the
   virtual-clock timestamping and the determinism contract. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type phase = B | E | I | C

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : int;
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * value) list;
  ev_rt : (string * value) list;
}

(* growable event array; events are append-only *)
type t = {
  mutable buf : event array;
  mutable len : int;
  mutable clock : int;  (** virtual time of the next default-ts event *)
  sink : (event -> unit) option;  (** takes every event in place of [buf] *)
}

let dummy_event =
  { ev_name = ""; ev_cat = ""; ev_ph = I; ev_ts = 0; ev_pid = 0; ev_tid = 0;
    ev_args = []; ev_rt = [] }

let create ?sink () =
  { buf = Array.make 64 dummy_event; len = 0; clock = 0; sink }

let length t = t.len

let events t = Array.to_list (Array.sub t.buf 0 t.len)

let value_to_json : value -> Json.t = function
  | Str s -> Json.Str s
  | Int n -> Json.Int n
  | Float x -> Json.Float x
  | Bool b -> Json.Bool b

let push (t : t) (ev : event) : unit =
  match t.sink with
  | Some sink -> sink ev
  | None ->
      if t.len = Array.length t.buf then begin
        let bigger = Array.make (2 * t.len) dummy_event in
        Array.blit t.buf 0 bigger 0 t.len;
        t.buf <- bigger
      end;
      t.buf.(t.len) <- ev;
      t.len <- t.len + 1

(* the virtual clock advances by one per event and never runs
   backwards; an explicit ts ahead of it fast-forwards it *)
let stamp (t : t) (ts : int option) : int =
  let now = match ts with Some ts -> max ts t.clock | None -> t.clock in
  t.clock <- now + 1;
  now

let emit (t : t) ~(cat : string) ~(pid : int) ~(tid : int) ?ts
    ~(args : (string * value) list) ?(rt = []) (ph : phase) (name : string)
    : unit =
  push t
    {
      ev_name = name;
      ev_cat = cat;
      ev_ph = ph;
      ev_ts = stamp t ts;
      ev_pid = pid;
      ev_tid = tid;
      ev_args = args;
      ev_rt = rt;
    }

let instant t ?(cat = "") ?(pid = 0) ?(tid = 0) ?ts ?(args = []) ?rt name =
  emit t ~cat ~pid ~tid ?ts ~args ?rt I name

let begin_span t ?(cat = "") ?(pid = 0) ?(tid = 0) ?ts ?(args = []) name =
  emit t ~cat ~pid ~tid ?ts ~args B name

let end_span t ?(cat = "") ?(pid = 0) ?(tid = 0) ?ts name =
  emit t ~cat ~pid ~tid ?ts ~args:[] E name

let with_span t ?(cat = "") ?(pid = 0) ?(tid = 0) ?(args = []) name f =
  begin_span t ~cat ~pid ~tid ~args name;
  Fun.protect ~finally:(fun () -> end_span t ~cat ~pid ~tid name) f

let counter t ?(cat = "") ?(pid = 0) ?(tid = 0) ?ts name v =
  emit t ~cat ~pid ~tid ?ts ~args:[ ("value", Float v) ] C name

let merge (ts : t list) : t =
  let out = create () in
  List.iter
    (fun t ->
      for i = 0 to t.len - 1 do
        push out t.buf.(i)
      done;
      out.clock <- max out.clock t.clock)
    ts;
  out

let shift_pid (t : t) (delta : int) : unit =
  for i = 0 to t.len - 1 do
    t.buf.(i) <- { t.buf.(i) with ev_pid = t.buf.(i).ev_pid + delta }
  done

(* per-(pid, tid) stacks of open span names *)
let balanced (t : t) : bool =
  let stacks : (int * int, string list) Hashtbl.t = Hashtbl.create 16 in
  let ok = ref true in
  for i = 0 to t.len - 1 do
    let ev = t.buf.(i) in
    let key = (ev.ev_pid, ev.ev_tid) in
    match ev.ev_ph with
    | B ->
        Hashtbl.replace stacks key
          (ev.ev_name :: Option.value ~default:[] (Hashtbl.find_opt stacks key))
    | E -> (
        match Hashtbl.find_opt stacks key with
        | Some (top :: rest) when top = ev.ev_name ->
            Hashtbl.replace stacks key rest
        | _ -> ok := false)
    | I | C -> ()
  done;
  Hashtbl.iter (fun _ stack -> if stack <> [] then ok := false) stacks;
  !ok

let equal (a : t) (b : t) : bool =
  a.len = b.len
  &&
  let same = ref true in
  for i = 0 to a.len - 1 do
    if a.buf.(i) <> b.buf.(i) then same := false
  done;
  !same
