(** Deterministic discrete-event simulation engine.

    The engine runs a set of cooperative fibers against a virtual clock
    measured in nanoseconds.  Fibers are implemented with OCaml 5
    effects: a fiber may {!sleep} (advance its own timeline) or
    {!await} a cell (park on it until some other fiber or scheduled
    event {!wake}s it).  Parking on a cell is the one way to block: the
    structures below are cells that fibers park on.  Every MPI rank in
    the simulated cluster is one fiber; network deliveries are plain
    scheduled events.

    Determinism — the [(time, seq)] tie-break contract: every scheduled
    event carries its target virtual time plus a strictly increasing
    sequence number, and the event queue pops in [(time, seq)]
    lexicographic order.  Events with equal timestamps therefore run in
    scheduling order (FIFO), so a simulation with the same inputs always
    produces the same trace — including at large scale, where float
    accumulation makes exact timestamp collisions common (thousands of
    ranks charging identical modeled costs land on bitwise-equal
    times).  Correctness of every replay oracle in the tree rests on
    this order being total; the event queue ({!Evq}) is pinned against
    the reference binary heap in [test/heap.ml] by a differential property in
    [test_simnet.ml].  Wall-clock time never enters the model.

    Virtual-time hardening: NaN delays (and [-infinity]) are rejected
    with [Invalid_argument] everywhere — a NaN timestamp would poison
    every comparison downstream and silently break the total order.
    {!sleep} additionally rejects negative durations (a fiber's sleep
    is a duration it computed; negative means an arithmetic bug), while
    {!at}/event scheduling clamp negative finite delays to zero, the
    documented "yield" semantics jittered channels rely on. *)

type t

exception Deadlock of string
(** Raised by {!run} when parked fibers remain but no future event can
    wake them.  The message names every blocked fiber as [name#id],
    in increasing fiber-id (spawn) order. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in nanoseconds. *)

val set_obs : t -> Mpicd_obs.Obs.t -> unit
(** Attach an observability sink: each fiber gets a ["fiber"]-category
    lifetime span and park/wake instants (named ["suspend"] and
    ["resume"]).  The engine's event counts go to {!set_stats} only.
    Detached (the default, {!Mpicd_obs.Obs.null}) costs one branch per
    site and records nothing; attaching never perturbs timing or
    scheduling order. *)

val set_stats : t -> Stats.t -> unit
(** Attach a {!Stats} sink: every scheduled event updates
    [events_scheduled_total], [events_pooled_reuses] and
    [max_live_events], and a sleep that continues in place also
    [Sleeps_in_place], attributing engine overhead alongside the
    transport counters.  Without a sink (the default) the per-event
    cost is a single branch. *)

val spawn : t -> ?name:string -> ?track:int -> (unit -> unit) -> unit
(** [spawn t f] registers a fiber that starts at the current virtual
    time.  May be called before [run] or from inside a running fiber.
    [track] is the observability track its spans are recorded on
    (callers that model ranks pass the rank); defaults to a per-fiber
    negative id. *)

val sleep : t -> float -> unit
(** [sleep t d] advances this fiber's clock by [d] ns.  Must be called
    from inside a fiber of [t].  Zero durations yield (letting same-time
    events interleave deterministically).  When the wake-up would be
    the next event anyway (nothing queued runs before [now t +. d],
    and nothing at that time, which was queued first) the fiber
    continues in place: the clock advances without a suspension, in
    the order and with the counts a queued wake-up would give.
    @raise Invalid_argument on NaN or negative durations. *)

(** {2 Waits}

    A cell that fibers block on keeps its parked readers in a field of
    its own, so a blocked fiber holds its continuation and one node,
    and allocates no closure. *)

type 'a waiter
(** The fibers parked on one cell, waiting for an ['a]. *)

val idle : 'a waiter
(** No fiber parked. *)

type ('c, 'a) slot = { get : 'c -> 'a waiter; set : 'c -> 'a waiter -> unit }
(** How to reach the waiter field of a cell of type ['c]. *)

val await : ('c, 'a) slot -> 'c -> 'a
(** [await slot cell] parks the calling fiber on [cell] until {!wake}
    delivers a value.  Must be called from inside a fiber. *)

val await_any : ('c, 'a) slot -> 'c list -> int * 'a
(** [await_any slot cells] parks the calling fiber once, on every cell
    of [cells] (none of which may be woken already), and returns the
    index and value of the first one woken.  The other cells keep a
    stale node that a later {!wake} skips.
    @raise Invalid_argument if [cells] is empty. *)

val wake : ('c, 'a) slot -> 'c -> 'a -> unit
(** [wake slot cell v] empties [cell]'s waiter field and reschedules
    every fiber parked on it at the current virtual time with [v], in
    the order they parked, skipping an {!await_any} that another cell
    already woke. *)

val at : t -> delay:float -> (unit -> unit) -> unit
(** [at t ~delay f] schedules callback [f] to run at [now t +. delay].
    Callbacks run outside any fiber and must not perform effects; they
    typically wake parked fibers or spawn new ones. *)

val run : t -> unit
(** Execute events until none remain.  @raise Deadlock if fibers are
    still parked when the queue drains. *)

val live_fibers : t -> int
(** Number of fibers spawned but not yet finished. *)

val scans : t -> int
(** Buckets the event queue's searches for the next event stepped past
    ({!Evq.scans}): host work, never part of virtual time. *)

(** {1 Blocking structures built on [await]} *)

module Waitq : sig
  (** A FIFO queue of parked fibers, each waiting for a value on a
      one-shot cell of its own: the building block for completion
      queues and condition variables. *)

  type engine := t
  type 'a t

  val create : unit -> 'a t
  val wait : engine -> 'a t -> 'a
  val signal : 'a t -> 'a -> bool
  (** Resume the oldest waiter with the value; [false] if nobody waits. *)

  val broadcast : 'a t -> 'a -> int
  (** Resume all current waiters; returns how many were resumed. *)

  val waiters : 'a t -> int
end

module Mutex : sig
  (** Mutual exclusion between fibers — models the higher-level locks
      language bindings must take around multi-message operations. *)

  type engine := t
  type t

  val create : unit -> t
  val lock : engine -> t -> unit
  (** Blocks until the mutex is free; FIFO handoff. *)

  val unlock : t -> unit
  (** @raise Invalid_argument if the mutex is not locked. *)

  val with_lock : engine -> t -> (unit -> 'a) -> 'a
  val is_locked : t -> bool
end

module Ivar : sig
  (** Write-once cell; readers block until it is filled. *)

  type engine := t
  type 'a t

  val create : unit -> 'a t
  val fill : 'a t -> 'a -> unit
  (** @raise Invalid_argument if already filled. *)

  val read : engine -> 'a t -> 'a
end
