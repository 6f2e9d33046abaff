module Obs = Mpicd_obs.Obs

(* A live fiber, linked into its engine's ring of live fibers: linked
   at spawn, unlinked when it returns, both O(1) and allocation-free
   beyond this record.  Spawn appends, so the ring is in id order.
   When the queue runs dry every live fiber is parked (a runnable or
   sleeping one would have an event queued), so the ring is exactly
   the deadlock report, and parking or waking does no bookkeeping. *)
type fiber = {
  f_id : int;
  f_name : string;
  f_track : int;  (* observability track of its spans and instants *)
  f_engine : t;
  mutable f_span : Obs.span;  (* its lifetime span, if observed *)
  mutable prev : fiber;
  mutable next : fiber;
}

and t = {
  mutable clock : float;
  events : (unit -> unit) Evq.t;
  mutable seq : int;
  mutable reuses_seen : int;  (* [Evq.reuses events] after the last push *)
  mutable live : int;
  fibers : fiber;  (* sentinel of the live-fiber ring *)
  mutable fiber_ids : int;
  mutable obs : Obs.t;
  mutable observed : bool;
      (* [Obs.enabled obs], kept here: a dev build compiles libraries
         [-opaque], so the getter would be a real call per park/wake *)
  mutable stats : Stats.t option;
      (* engine-overhead accounting ([events_scheduled_total] etc.);
         [None] (the default) keeps the hot path to one branch *)
  mutable current : fiber;
      (* the fiber running, or last to run: every start and resumption
         sets it, so one handler per engine serves all its fibers *)
  mutable in_fiber : bool;
      (* a fiber of this engine is running: set with [current], and
         cleared by every park, return or exception *)
  mutable handler : (unit, unit) Effect.Deep.handler;
  sleep : unit Effect.t;  (* this engine's one [Sleep] value *)
  sleep_for : Float.Array.t;
      (* the pending sleep's duration, stored unboxed: [sleep] writes
         it and the handler reads it before anything else can run *)
}

exception Deadlock of string

(* The fibers parked on one cell, newest first: each holds its own
   continuation, and waking resumes the earliest first (FIFO).  A lone
   reader, the usual case, needs no link.  A [Parked_any] node is one
   of an [await_any]'s nodes, one per cell: they share [won], so only
   the first to be woken resumes the fiber and the rest go stale in
   their cells, skipped by a later wake. *)
type 'a waiter =
  | Idle
  | Parked of { k : ('a, unit) Effect.Deep.continuation; fib : fiber }
  | Parked_after of {
      k : ('a, unit) Effect.Deep.continuation;
      fib : fiber;
      earlier : 'a waiter;
    }
  | Parked_any of {
      k : (int * 'a, unit) Effect.Deep.continuation;
      fib : fiber;
      won : bool ref;
      index : int;
      earlier : 'a waiter;
    }

let idle = Idle

(* How to reach a cell's waiter field: one static pair per cell type,
   so waiting on a cell allocates no closure over the cell. *)
type ('c, 'a) slot = { get : 'c -> 'a waiter; set : 'c -> 'a waiter -> unit }

type _ Effect.t +=
  | Sleep : t -> unit Effect.t
  | Await : ('c, 'a) slot * 'c -> 'a Effect.t
  | Await_any : ('c, 'a) slot * 'c list -> (int * 'a) Effect.t

let now t = t.clock

let set_obs t o =
  t.obs <- o;
  t.observed <- Obs.enabled o

let set_stats t s = t.stats <- Some s

(* Virtual-time hardening: a NaN delay would silently poison the clock
   and every comparison downstream, so it is rejected at the door.
   Negative finite delays are clamped to zero (the documented "yield"
   semantics callers such as jittered channels rely on); [-infinity]
   is rejected with NaN since clamping it would mask a real arithmetic
   bug upstream. *)
let check_delay ~who delay =
  if Float.is_nan delay then invalid_arg (who ^ ": NaN delay")
  else if delay = Float.neg_infinity then
    invalid_arg (who ^ ": -infinity delay")

(* One logical event: [live] counts the queue with it. *)
let[@inline] count_event t ~reused ~live =
  match t.stats with
  | None -> ()
  | Some s -> Stats.record_event_scheduled s ~reused ~live

let[@inline] schedule t ~delay f =
  check_delay ~who:"Engine.schedule" delay;
  t.seq <- t.seq + 1;
  Evq.push t.events ~time:(t.clock +. Float.max 0. delay) ~seq:t.seq f;
  (* every push goes through here, so [reuses_seen] is the pool count
     before this push: one read decides [reused] *)
  let reuses = Evq.reuses t.events in
  let reused = reuses > t.reuses_seen in
  t.reuses_seen <- reuses;
  count_event t ~reused ~live:(Evq.size t.events)

(* A sleep's wake-up [(clock + d, newest seq)] is the next event popped
   when the queue is empty or its minimum is later than [clock + d]: a
   queued event at that very time has a lower seq and runs first.  Then
   the fiber continues in place with the clock advanced, exactly as if
   it had been suspended and resumed by that pop; the event is still
   counted.  Only a fiber of this engine can: elsewhere the effect is
   performed and fails as unhandled. *)
let sleep t d =
  (* A fiber's sleep is always a duration it computed itself: negative
     values are arithmetic bugs, not scheduling idioms, so they are
     rejected rather than clamped (NaN likewise, via [schedule]). *)
  if Float.is_nan d then invalid_arg "Engine.sleep: NaN duration"
  else if d < 0. then invalid_arg "Engine.sleep: negative duration";
  if
    t.in_fiber
    && (Evq.is_empty t.events || Evq.min_after t.events t.clock d)
  then begin
    t.seq <- t.seq + 1;
    if d > 0. then t.clock <- t.clock +. d;
    count_event t ~reused:true ~live:(Evq.size t.events + 1);
    match t.stats with None -> () | Some s -> Stats.incr s Sleeps_in_place
  end
  else begin
    Float.Array.unsafe_set t.sleep_for 0 d;
    Effect.perform t.sleep
  end
let await slot cell = Effect.perform (Await (slot, cell))

let await_any slot cells =
  if cells = [] then invalid_arg "Engine.await_any: no cells";
  Effect.perform (Await_any (slot, cells))

(* Observability: one span per fiber lifetime, plus park ("suspend")
   and wake ("resume") instants.  All recording is guarded so a
   detached sink costs a single branch and allocates nothing. *)
let fiber_instant fib what =
  let t = fib.f_engine in
  if t.observed then
    Obs.instant t.obs ~time:t.clock ~track:fib.f_track ~cat:"fiber"
      ~args:[ ("fiber", Obs.Str (Printf.sprintf "%s#%d" fib.f_name fib.f_id)) ]
      what

let resume_with fib k v =
  let t = fib.f_engine in
  t.current <- fib;
  t.in_fiber <- true;
  Effect.Deep.continue k v

let resume fib k v =
  fiber_instant fib "resume";
  schedule fib.f_engine ~delay:0. (fun () -> resume_with fib k v)

(* Wake a cell's parked fibers, earliest first, with [v]. *)
let rec resume_parked w v =
  match w with
  | Idle -> ()
  | Parked { k; fib } -> resume fib k v
  | Parked_after { k; fib; earlier } ->
      resume_parked earlier v;
      resume fib k v
  | Parked_any { k; fib; won; index; earlier } ->
      resume_parked earlier v;
      if not !won then begin
        won := true;
        resume fib k (index, v)
      end

let wake slot cell v =
  match slot.get cell with
  | Idle -> ()
  | w ->
      slot.set cell Idle;
      resume_parked w v

(* The one handler of an engine's fibers: [t.current] says which fiber
   performed an effect or returned. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let on_sleep =
    Some
      (fun (k : (unit, unit) continuation) ->
        let fib = t.current in
        t.in_fiber <- false;
        schedule t ~delay:(Float.Array.unsafe_get t.sleep_for 0) (fun () ->
            resume_with fib k ()))
  in
  {
    retc =
      (fun () ->
        let fib = t.current in
        t.in_fiber <- false;
        t.live <- t.live - 1;
        fib.prev.next <- fib.next;
        fib.next.prev <- fib.prev;
        Obs.span_end t.obs ~time:t.clock fib.f_span);
    exnc =
      (fun e ->
        let bt = Printexc.get_raw_backtrace () in
        t.in_fiber <- false;
        Printexc.raise_with_backtrace e bt);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep t' when t' == t -> on_sleep
        | Await (slot, cell) ->
            Some
              (fun k ->
                let fib = t.current in
                t.in_fiber <- false;
                fiber_instant fib "suspend";
                slot.set cell
                  (match slot.get cell with
                  | Idle -> Parked { k; fib }
                  | earlier -> Parked_after { k; fib; earlier }))
        | Await_any (slot, cells) ->
            Some
              (fun k ->
                let fib = t.current in
                t.in_fiber <- false;
                fiber_instant fib "suspend";
                let won = ref false in
                List.iteri
                  (fun index cell ->
                    slot.set cell (Parked_any { k; fib; won; index; earlier = slot.get cell }))
                  cells)
        | _ -> None);
  }

let create () =
  let rec t =
    {
      clock = 0.;
      events = Evq.create ();
      seq = 0;
      reuses_seen = 0;
      live = 0;
      fibers = ring;
      fiber_ids = 0;
      obs = Obs.null;
      observed = false;
      stats = None;
      current = ring;
      in_fiber = false;
      handler = { retc = Fun.id; exnc = raise; effc = (fun _ -> None) };
      sleep = Sleep t;
      sleep_for = Float.Array.make 1 0.;
    }
  and ring =
    { f_id = 0; f_name = ""; f_track = 0; f_engine = t; f_span = Obs.null_span;
      prev = ring; next = ring }
  in
  t.handler <- make_handler t;
  t

let exec_fiber t fib f =
  if t.observed then
    fib.f_span <-
      Obs.span_begin t.obs ~time:t.clock ~track:fib.f_track ~cat:"fiber"
        ~args:[ ("id", Obs.Int fib.f_id) ]
        fib.f_name;
  t.current <- fib;
  t.in_fiber <- true;
  Effect.Deep.match_with f () t.handler

let spawn t ?(name = "fiber") ?track f =
  t.live <- t.live + 1;
  t.fiber_ids <- t.fiber_ids + 1;
  let id = t.fiber_ids in
  let ring = t.fibers in
  let f_track = match track with Some r -> r | None -> -id in
  let fib =
    { f_id = id; f_name = name; f_track; f_engine = t; f_span = Obs.null_span;
      prev = ring.prev; next = ring }
  in
  ring.prev.next <- fib;
  ring.prev <- fib;
  schedule t ~delay:0. (fun () -> exec_fiber t fib f)

let at t ~delay f = schedule t ~delay f

let live_fibers t = t.live
let scans t = Evq.scans t.events

let run t =
  (* Hot loop: non-allocating peek/pop (no option or tuple boxing) —
     the engine itself allocates nothing per event in steady state. *)
  let rec loop () =
    if Evq.is_empty t.events then begin
      if t.live > 0 then begin
        let rec names fib acc =
          if fib == t.fibers then List.rev acc
          else
            names fib.next (Printf.sprintf "%s#%d" fib.f_name fib.f_id :: acc)
        in
        let names = String.concat ", " (names t.fibers.next []) in
        raise
          (Deadlock
             (Printf.sprintf
                "simulation deadlock: %d fiber(s) still blocked [%s]"
                t.live names))
      end
    end
    else begin
      (* [min_time]'s result is boxed: read it only when the clock
         advances, a few percent of events in a lockstep world *)
      if Evq.min_after t.events t.clock 0. then t.clock <- Evq.min_time t.events;
      let f = Evq.pop_min t.events in
      f ();
      loop ()
    end
  in
  loop ()

module Ivar = struct
  (* The blocked readers are parked in the cell itself, so a blocked
     read keeps only its continuation and one [Parked] node reachable.
     Later readers wake after earlier ones (FIFO). *)
  type 'a t = { mutable value : 'a option; mutable readers : 'a waiter }

  let slot = { get = (fun t -> t.readers); set = (fun t w -> t.readers <- w) }
  let create () = { value = None; readers = Idle }

  let fill t v =
    match t.value with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
        t.value <- Some v;
        wake slot t v

  let read _ t = match t.value with Some v -> v | None -> await slot t
end

module Waitq = struct
  type 'a t = 'a Ivar.t Queue.t  (* one cell per waiter, oldest first *)

  let create () = Queue.create ()

  let wait e t =
    let cell = Ivar.create () in
    Queue.push cell t;
    Ivar.read e cell

  let signal t v =
    match Queue.take_opt t with
    | None -> false
    | Some cell ->
        Ivar.fill cell v;
        true

  let broadcast t v =
    let n = Queue.length t in
    Queue.iter (fun cell -> Ivar.fill cell v) t;
    Queue.clear t;
    n

  let waiters t = Queue.length t
end

module Mutex = struct
  type t = { mutable locked : bool; waiters : unit Waitq.t }

  let create () = { locked = false; waiters = Waitq.create () }

  let lock e t =
    if t.locked then Waitq.wait e t.waiters
    else t.locked <- true

  let unlock t =
    if not t.locked then invalid_arg "Mutex.unlock: not locked"
    else if not (Waitq.signal t.waiters ()) then t.locked <- false
  (* when a waiter is resumed the mutex stays locked: FIFO handoff *)

  let with_lock e t f =
    lock e t;
    Fun.protect ~finally:(fun () -> unlock t) f

  let is_locked t = t.locked
end
