(** High-throughput event queue for the simulation engine.

    A calendar queue (Brown 1988) over parallel unboxed arrays,
    ordered by [(time, seq)] — the same total order as the reference
    binary heap in [test/heap.ml]: the sequence number breaks ties so that
    events scheduled earlier at the same timestamp pop first.  Equal
    times always hash to the same bucket and in-bucket lists are
    totally ordered, so the pop order of any push/pop interleaving is
    {e identical} to that heap's — the differential property pinned in
    [test_simnet.ml].

    Performance contract (the reason this module exists — see
    [docs/PERFORMANCE.md], "Engine internals & topology model"):
    - O(1) amortized push and pop: events hash by timestamp into
      buckets about one event wide, so a push is usually a tail append
      (the simulation schedules forward in time) and a pop scans about
      one bucket — no O(log n) sift at all;
    - keys live in a [float array], so they are stored unboxed and
      compared with contiguous loads (a boxed binary heap chases
      option → record → boxed-float indirections per comparison and
      allocates on every push {e and} pop);
    - entry ids are recycled in place: a steady-state simulation
      (push/pop balanced) allocates nothing on the hot path — the
      arrays only grow on resize, they never churn;
    - {!min_time} / {!pop_min} allocate nothing (no option or tuple
      boxing), unlike the compatibility {!pop}, except when their scan
      wraps a whole calendar year: the bucket width has gone stale, and
      the calendar is rebuilt with a width re-estimated from the time
      between the last pop and the live events; a {!min_time}
      immediately followed by {!pop_min} performs a single bucket
      scan (the located entry is cached).

    Times must be non-negative and finite — the engine guarantees this
    (the virtual clock starts at zero and delays are validated).

    (A pooled pairing heap and an implicit 4-ary heap were prototyped
    first; the pairing heap {e lost} to the seed binary heap on hold
    workloads — cache-hostile pointer chasing and per-node boxed keys
    — and the 4-ary heap plateaued at ~3x, stuck on data-dependent
    branch mispredicts in the child scan.  The calendar queue's
    branches are predictable, which is where the rest of the speedup
    comes from.  Its cost follows the buckets a pop scans, which
    [test_simnet.ml] pins per pop on the 1k/4k hold pattern through
    {!scans}.) *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert; O(1) amortized (a tail append into the target bucket for
    keys at or past the bucket's horizon — the common case),
    allocation-free unless the backing arrays must grow or the bucket
    calendar resizes.  The minimum a scan found stays cached when the
    new key sorts after it, so the next {!pop_min} needs no scan. *)

val min_time : 'a t -> float
(** Time of the minimum entry without removing it; non-allocating
    unless the scan rebuilds the calendar (see above).
    @raise Invalid_argument on an empty queue. *)

val min_after : 'a t -> float -> float -> bool
(** [min_after t x dx] is [min_time t > x +. dx] without boxing a time:
    [min_time] returns its result boxed to a caller in another module,
    and a sum computed there would be boxed to pass it in.  The scan
    that finds the minimum is cached, and a {!push} whose key sorts
    after it keeps it, so a [min_after] followed by a later push and a
    {!pop_min} scans once.
    @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove the minimum entry and return its value; non-allocating in
    steady state (the freed entry is reused by later pushes, and
    calendar rebuilds are rare).
    @raise Invalid_argument on an empty queue. *)

val pop : 'a t -> (float * int * 'a) option
(** The minimum entry, removed, as an option: the shape of the
    reference heap's [pop] in [test/heap.ml]; allocates the result box.
    Tests and the differential property use this. *)

(** {1 Engine-overhead accounting}

    Monotone counters over the queue's lifetime.  The first three feed
    the [events_scheduled_total] / [events_pooled_reuses] /
    [max_live_events] Stats counters and Obs metrics. *)

val pushes : 'a t -> int
(** Total number of [push] calls. *)

val reuses : 'a t -> int
(** How many pushes were served by already-allocated entry storage
    (everything except the pushes that forced the backing arrays to
    grow). *)

val max_live : 'a t -> int
(** High-water mark of simultaneously queued events. *)

val scans : 'a t -> int
(** Total number of empty or out-of-window buckets the minimum search
    stepped past; a pop that finds its entry in the cursor's bucket
    adds nothing. *)
