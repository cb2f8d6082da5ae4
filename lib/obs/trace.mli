(** Structured tracing: counters, spans and instant events with typed
    key-value attributes, collected into in-memory buffers.

    {b Event model.}  An event has a name, a category, a Chrome
    trace-event phase ([B]egin span / [E]nd span / [I]nstant /
    [C]ounter), a timestamp, a (pid, tid) track, a list of typed
    attributes, and an envelope of typed fields that differ from run
    to run (empty unless the emitter sets it).  Timestamps are {e virtual}: either supplied by the
    instrumented code (the simulator passes its deterministic cycle
    count) or drawn from the buffer's own event counter — never from the
    wall clock — so a trace is a pure function of the computation and
    two runs of the same work produce byte-identical traces regardless
    of machine load or the {!Darm_harness.Parallel_sweep} pool size.

    {b Zero overhead.}  Instrumented code holds a [Trace.t option] and
    emits only under [Some]; with no buffer installed the cost is one
    pattern match at each (rare) instrumentation site and the observed
    computation is bit-identical to an uninstrumented run.

    {b Determinism under parallelism.}  Buffers are single-domain:
    each parallel task records into its own buffer and the caller
    {!merge}s them in task order, mirroring the deterministic-output
    design of {!Darm_harness.Parallel_sweep}.

    {b Track conventions} used by the instrumented layers (see
    [doc/observability.md]): the pass driver and harness emit on
    pid 0; a simulator run emits on a caller-chosen pid
    ([Simulator.config.obs_pid]) with tid 0 carrying the per-block
    cycle spans and tid [1 + tid_base] carrying each warp's divergence
    timeline. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type phase =
  | B  (** span begin *)
  | E  (** span end *)
  | I  (** instant event *)
  | C  (** counter sample *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : int;
  ev_pid : int;
  ev_tid : int;
  ev_args : (string * value) list;
  ev_rt : (string * value) list;
      (** the envelope for fields that differ from run to run (wall-clock
          durations, which worker served what); empty on every event
          except those that set [?rt] *)
}

type t

(** A fresh buffer.  With [sink], each event goes to [sink] as it is
    emitted and the buffer keeps none ({!events} stays empty), so a
    long run can stream its trace without holding it. *)
val create : ?sink:(event -> unit) -> unit -> t

val length : t -> int

(** Events in emission order. *)
val events : t -> event list

val value_to_json : value -> Json.t

(* -- emission ------------------------------------------------------ *)
(* [ts] defaults to the buffer's virtual clock, which advances by one
   per event and never runs backwards (an explicit [ts] ahead of it
   fast-forwards the clock). *)

val instant :
  t ->
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?ts:int ->
  ?args:(string * value) list ->
  ?rt:(string * value) list ->
  string ->
  unit

val begin_span :
  t ->
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?ts:int ->
  ?args:(string * value) list ->
  string ->
  unit

(** Ends the innermost open span with this name on the (pid, tid)
    track.  End events carry no attributes; attach them to the begin
    event. *)
val end_span :
  t -> ?cat:string -> ?pid:int -> ?tid:int -> ?ts:int -> string -> unit

(** [with_span t name f] — [f] bracketed by a begin/end pair; the end
    event is emitted even when [f] raises. *)
val with_span :
  t ->
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * value) list ->
  string ->
  (unit -> 'a) ->
  'a

val counter :
  t -> ?cat:string -> ?pid:int -> ?tid:int -> ?ts:int -> string -> float -> unit

(* -- structure ----------------------------------------------------- *)

(** Concatenate buffers in list order into a fresh buffer (the inputs
    are unchanged).  Event order, and therefore serialized bytes, are a
    function of the list order only. *)
val merge : t list -> t

(** Add [delta] to the pid of every event — used to give each parallel
    task its own pid namespace before a {!merge}. *)
val shift_pid : t -> int -> unit

(** Every [B] has a matching same-name [E] on its (pid, tid) track and
    the pairs nest properly. *)
val balanced : t -> bool

(** Structural equality of two buffers' event sequences. *)
val equal : t -> t -> bool
