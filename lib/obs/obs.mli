(** Structured observability sink: typed spans and instants over the
    virtual clock.

    This module deliberately depends on nothing else in the tree so that
    every layer — including the simulation engine itself — can be
    instrumented with it.  Timestamps are plain floats supplied by the
    caller (virtual nanoseconds from [Engine.now]).

    The sink is attach-on-demand: code holds an {!t} that is {!null} by
    default, and every recording entry point is a no-op on a disabled
    sink.  Recording never advances the virtual clock, never perturbs
    scheduling order, and never touches [Stats] — attaching or detaching
    observability cannot change a simulation's result (the zero-overhead
    test in [test_obs.ml] asserts exactly this).

    Span conventions used across the tree:
    - category ["p2p"]: MPI-level operations (send/isend/recv/irecv/
      wait/barrier), one span per operation from post to completion;
    - category ["proto"]: transport protocol phases (pack, wire, rts,
      rendezvous handshake, unpack);
    - category ["callback"]: individual pack/unpack callback
      invocations, tiled across their phase's modeled duration;
    - category ["fiber"]: scheduler fiber lifetimes plus park and
      wake instants (named ["suspend"] and ["resume"]);
    - category ["ckpt"]: checkpoint/restart activity from
      [Mpicd_restart] (commit/restore/recovery spans; epoch-marker,
      snapshot-completion, duplicate-suppression and log-replay
      instants).

    Tracks are small ints: rank/worker ids for ranks ([>= 0]), negative
    fiber ids for engine-internal fibers. *)

type t

type attr = Int of int | Float of float | Str of string | Bool of bool

type span = private {
  sid : int;
  track : int;
  cat : string;
  name : string;
  t0 : float;
  mutable t1 : float;  (** NaN while open *)
  parent : int;  (** sid of the enclosing span at begin time, or -1 *)
  mutable args : (string * attr) list;
}

type instant = private {
  i_time : float;
  i_track : int;
  i_cat : string;
  i_name : string;
  i_args : (string * attr) list;
}

val null : t
(** The shared disabled sink: every recording call on it is a no-op.
    Instrumentation sites should guard any argument construction with
    {!enabled} so the disabled path does no work at all. *)

val create : ?max_events:int -> unit -> t
(** A live sink.  [max_events] bounds retained spans+instants (default
    1e6); excess events are counted in {!dropped}, not stored. *)

val enabled : t -> bool

val metrics : t -> Metrics.t
(** The sink's metrics registry ([null] has an inert one). *)

val null_span : span
(** Returned by {!span_begin} on a disabled or full sink; {!span_end}
    ignores it. *)

val span_begin :
  t ->
  time:float ->
  track:int ->
  cat:string ->
  ?nest:bool ->
  ?args:(string * attr) list ->
  string ->
  span
(** Open a span.  Its parent is the innermost span currently open (via
    [nest:true]) on the same track.  [nest] (default true) pushes the
    new span onto the track's nesting stack; pass [nest:false] for
    spans that outlive their fiber's stack discipline (e.g. an
    operation completed by a later scheduled event). *)

val span_end : t -> time:float -> ?args:(string * attr) list -> span -> unit
(** Close a span (appending [args] if given).  Tolerates out-of-LIFO
    ends. *)

val span_complete :
  t ->
  track:int ->
  cat:string ->
  t0:float ->
  t1:float ->
  ?parent:span ->
  ?args:(string * attr) list ->
  string ->
  span
(** Record an already-finished span, e.g. a phase whose modeled duration
    is known up front.  [parent] overrides the nesting-stack parent. *)

val tile_callbacks :
  t ->
  track:int ->
  t0:float ->
  t1:float ->
  n:int ->
  name:string ->
  hist:string ->
  parent:span ->
  unit
(** Tile [n] category-["callback"] spans named [name] uniformly across
    the phase [\[t0, t1\]] under [parent], attributing the phase's
    virtual time to its callback invocations, and feed each one's
    duration to the histogram [hist].  A no-op when disabled, when
    [n = 0] or when the phase is empty. *)

val instant :
  t ->
  time:float ->
  track:int ->
  cat:string ->
  ?args:(string * attr) list ->
  string ->
  unit

(** {1 Reading the sink} *)

val spans : t -> span list
(** All spans (open ones have NaN [t1]), sorted by (t0, sid). *)

val instants : t -> instant list
(** Sorted by time, stable on recording order. *)

val is_open : span -> bool
val find : t -> int -> span option
(** Lookup by sid (linear; for tests and exporters). *)

val categories : t -> string list
val tracks : t -> int list
val span_count : t -> int
val instant_count : t -> int

val dropped : t -> int
(** Events discarded because the sink was full. *)

val clear : t -> unit
