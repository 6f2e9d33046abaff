module Obs = Mpicd_obs.Obs
module Metrics = Mpicd_obs.Metrics

(* A live fiber, linked into its engine's ring of live fibers: linked
   at spawn, unlinked when it returns, both O(1) and allocation-free
   beyond this record.  Spawn appends, so the ring is in id order.
   When the queue runs dry every live fiber is suspended (a runnable or
   sleeping one would have an event queued), so the ring is exactly
   the deadlock report, and a suspend or resume does no bookkeeping. *)
type fiber = {
  f_id : int;
  f_name : string;
  mutable gen : int;
      (* suspensions plus resumptions: a resumer is valid while this is
         still the value its suspension set *)
  mutable prev : fiber;
  mutable next : fiber;
}

type t = {
  mutable clock : float;
  events : (unit -> unit) Evq.t;
  mutable seq : int;
  mutable reuses_seen : int;  (* [Evq.reuses events] after the last push *)
  mutable live : int;
  fibers : fiber;  (* sentinel of the live-fiber ring *)
  mutable fiber_ids : int;
  mutable obs : Obs.t;
  mutable stats : Stats.t option;
      (* engine-overhead accounting ([events_scheduled_total] etc.);
         [None] (the default) keeps the hot path to one branch *)
  mutable metric_handles : (Metrics.counter * Metrics.counter * Metrics.gauge) option;
      (* cached (scheduled, pooled, live) handles: interned once at
         [set_obs] so the per-event path never does a name lookup *)
}

exception Deadlock of string

type 'a resumer = 'a -> unit

type _ Effect.t +=
  | Sleep : t * float -> unit Effect.t
  | Suspend : t * ('a resumer -> unit) -> 'a Effect.t

let create () =
  let rec fibers = { f_id = 0; f_name = ""; gen = 0; prev = fibers; next = fibers } in
  {
    clock = 0.;
    events = Evq.create ();
    seq = 0;
    reuses_seen = 0;
    live = 0;
    fibers;
    fiber_ids = 0;
    obs = Obs.null;
    stats = None;
    metric_handles = None;
  }

let now t = t.clock

let set_obs t o =
  t.obs <- o;
  t.metric_handles <-
    (if Obs.enabled o then begin
       let m = Obs.metrics o in
       Some
         ( Metrics.counter m "events_scheduled_total",
           Metrics.counter m "events_pooled_reuses",
           Metrics.gauge m "live_events" )
     end
     else None)

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

let schedule t ~delay f =
  check_delay ~who:"Engine.schedule" delay;
  t.seq <- t.seq + 1;
  Evq.push t.events ~time:(t.clock +. Float.max 0. delay) ~seq:t.seq f;
  (* every push goes through here, so [reuses_seen] is the pool count
     before this push: one read decides [reused] for both sinks *)
  let reuses = Evq.reuses t.events in
  let reused = reuses > t.reuses_seen in
  t.reuses_seen <- reuses;
  (match t.stats with
  | None -> ()
  | Some s ->
      Stats.record_event_scheduled s ~reused ~live:(Evq.size t.events));
  match t.metric_handles with
  | None -> ()
  | Some (c_sched, c_pool, g_live) ->
      Metrics.inc c_sched;
      if reused then Metrics.inc c_pool;
      Metrics.set g_live (float_of_int (Evq.size t.events))

let sleep t d =
  (* A fiber's sleep is always a duration it computed itself: negative
     values are arithmetic bugs, not scheduling idioms, so they are
     rejected rather than clamped (NaN likewise, via [schedule]). *)
  if Float.is_nan d then invalid_arg "Engine.sleep: NaN duration"
  else if d < 0. then invalid_arg "Engine.sleep: negative duration";
  Effect.perform (Sleep (t, d))
let suspend t register = Effect.perform (Suspend (t, register))

let exec_fiber t fib ~track f =
  let open Effect.Deep in
  let id = fib.f_id and name = fib.f_name in
  (* Observability: one span per fiber lifetime, plus suspend/resume
     instants.  All recording is guarded so a detached sink costs a
     single branch and allocates nothing. *)
  let fiber_span =
    if Obs.enabled t.obs then
      Obs.span_begin t.obs ~time:t.clock ~track ~cat:"fiber"
        ~args:[ ("id", Obs.Int id) ]
        name
    else Obs.null_span
  in
  let fiber_instant what =
    if Obs.enabled t.obs then
      Obs.instant t.obs ~time:t.clock ~track ~cat:"fiber"
        ~args:[ ("fiber", Obs.Str (Printf.sprintf "%s#%d" name id)) ]
        what
  in
  match_with f ()
    {
      retc =
        (fun () ->
          t.live <- t.live - 1;
          fib.prev.next <- fib.next;
          fib.next.prev <- fib.prev;
          Obs.span_end t.obs ~time:t.clock fiber_span);
      exnc =
        (fun e -> Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ()));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep (t', d) when t' == t ->
              Some
                (fun (k : (a, unit) continuation) ->
                  schedule t ~delay:d (fun () -> continue k ()))
          | Suspend (t', register) when t' == t ->
              Some
                (fun (k : (a, unit) continuation) ->
                  fiber_instant "suspend";
                  let gen = fib.gen + 1 in
                  fib.gen <- gen;
                  register (fun v ->
                      if fib.gen <> gen then
                        invalid_arg "Engine: resumer invoked twice";
                      fib.gen <- gen + 1;
                      fiber_instant "resume";
                      schedule t ~delay:0. (fun () -> continue k v)))
          | _ -> None);
    }

let spawn t ?(name = "fiber") ?track f =
  t.live <- t.live + 1;
  t.fiber_ids <- t.fiber_ids + 1;
  let id = t.fiber_ids in
  let ring = t.fibers in
  let fib = { f_id = id; f_name = name; gen = 0; prev = ring.prev; next = ring } in
  ring.prev.next <- fib;
  ring.prev <- fib;
  let track = match track with Some r -> r | None -> -id in
  schedule t ~delay:0. (fun () -> exec_fiber t fib ~track f)

let at t ~delay f = schedule t ~delay f

let live_fibers t = t.live

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
      if Evq.min_after t.events t.clock then t.clock <- Evq.min_time t.events;
      let f = Evq.pop_min t.events in
      f ();
      loop ()
    end
  in
  loop ()

module Waitq = struct
  type nonrec engine = t
  type 'a t = ('a resumer) Queue.t

  let create () = Queue.create ()

  let wait (e : engine) t = suspend e (fun resume -> Queue.push resume t)

  let signal t v =
    match Queue.take_opt t with
    | None -> false
    | Some resume ->
        resume v;
        true

  let broadcast t v =
    let n = Queue.length t in
    for _ = 1 to n do
      match Queue.take_opt t with
      | Some resume -> resume v
      | None -> ()
    done;
    n

  let waiters t = Queue.length t
end

module Mailbox = struct
  type 'a t = { items : 'a Queue.t; readers : 'a Waitq.t }

  let create () = { items = Queue.create (); readers = Waitq.create () }

  let send t v = if not (Waitq.signal t.readers v) then Queue.push v t.items

  let recv e t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None -> Waitq.wait e t.readers

  let try_recv t = Queue.take_opt t.items
  let length t = Queue.length t.items
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

module Ivar = struct
  (* The blocked readers as one resumer: a cell is mostly read by one
     fiber, so a blocked read keeps no list cell reachable.  Later
     readers are chained after earlier ones, so they wake FIFO. *)
  type 'a t = { mutable value : 'a option; mutable readers : 'a resumer }

  let no_readers _ = ()
  let create () = { value = None; readers = no_readers }

  let fill t v =
    match t.value with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
        t.value <- Some v;
        let wake = t.readers in
        t.readers <- no_readers;
        wake v

  let read e t =
    match t.value with
    | Some v -> v
    | None ->
        suspend e (fun resume ->
            let earlier = t.readers in
            t.readers <-
              (if earlier == no_readers then resume
               else fun v ->
                 earlier v;
                 resume v))

  let peek t = t.value
  let is_filled t = Option.is_some t.value
end
