(** Deterministic, seed-driven fault injection for the simulated
    interconnect.

    A fault {e plan} describes what can go wrong on the wire — per-link
    drop / duplicate / corruption probabilities, extra delay (reorder
    pressure), periodic link flaps, and rank crashes at fixed virtual
    times — plus the reliability-protocol parameters the transport uses
    to recover (retransmission timeout, exponential backoff, retry cap).

    Plans are pure data: the same [(config, plan)] pair always replays
    the same faults, because every random decision is drawn from a
    dedicated splitmix64 stream seeded by the plan ([seed]) and {e not}
    from any generator the fault-free simulation uses.  Enabling faults
    therefore never perturbs the timing or ordering of the fault-free
    portions of a run. *)

(** Per-link misbehaviour.  All probabilities are in [0, 1] and apply
    independently to each wire fragment. *)
type link_plan = {
  drop_p : float;  (** fragment is lost in flight *)
  corrupt_p : float;  (** one bit of the fragment flips in flight *)
  dup_p : float;  (** fragment is delivered twice *)
  delay_p : float;  (** fragment suffers extra latency *)
  delay_ns : float;  (** maximum extra latency when delayed *)
  flap_period_ns : float;
      (** link availability period; [0.] means the link never flaps *)
  flap_down_ns : float;
      (** down-window at the start of each period (the link is down
          during [[k*period, k*period + down)] for every [k >= 0]) *)
}

val clean_link : link_plan
(** A perfectly reliable link (all probabilities and windows zero). *)

(** A targeted single-shot fault: the first wire attempt of one exact
    fragment of one exact message suffers the given kind.  The
    injection-point coordinate [(src, dst, mseq, frag)] is stable across
    runs because [mseq] is the context-wide message sequence number
    allocated deterministically at send time — the explorer derives
    these coordinates from a reference run's probe tap. *)
type inject_kind = Inj_drop | Inj_corrupt

type injection = {
  inj_kind : inject_kind;
  inj_src : int;  (** sending worker id *)
  inj_dst : int;  (** receiving worker id *)
  inj_mseq : int;  (** context-wide message sequence number *)
  inj_frag : int;  (** fragment index within the message ([0]-based) *)
}

(** A network partition: the ranks in [part_group] are cut off from the
    rest of the world during [[part_start_ns, part_start_ns +
    part_dur_ns)]; fragments crossing the boundary in either direction
    are dropped (and retried by the reliability protocol), links inside
    either side are untouched.  The cut heals by itself when the window
    closes. *)
type partition = {
  part_group : int list;
  part_start_ns : float;
  part_dur_ns : float;
}

type t = {
  seed : int;  (** seed of the dedicated fault-decision RNG stream *)
  link : link_plan;  (** default plan for every link *)
  overrides : ((int * int) * link_plan) list;
      (** per-[(src, dst)] worker-pair overrides of [link] *)
  crashes : (int * float) list;
      (** [(rank, t)]: worker [rank] is dead from virtual time [t] on *)
  injections : injection list;
      (** targeted single-shot faults at exact injection points *)
  partitions : partition list;  (** healing link-set cuts *)
  stragglers : (int * float) list;
      (** [(rank, factor)]: persistent CPU slowdown, [factor >= 1.];
          the rank stays alive but all its compute (pack, unpack,
          per-message overhead) takes [factor] times longer, stressing
          heartbeat / rendezvous / backoff timeouts *)
  max_retries : int;  (** retransmission attempts per fragment *)
  rto_ns : float;  (** initial retransmission timeout *)
  backoff : float;  (** RTO multiplier per successive retry *)
  rndv_timeout_ns : float;
      (** rendezvous-handshake timeout: a sent RTS that stays unmatched
          this long fails with [Timeout]; [0.] disables the timer *)
  hb_period_ns : float;
      (** failure-detector heartbeat period: a crashed rank is declared
          failed at the first heartbeat boundary after its crash time
          plus two link latencies (probe + missing reply); [0.] disables
          the detector (crashes then only surface through retry
          exhaustion on in-flight traffic) *)
}

val default : t
(** No faults, [seed = 1], [max_retries = 8], [rto_ns = 50_000.]
    (50 us), [backoff = 2.], handshake timeout disabled, heartbeat
    period 100 us. *)

val make :
  ?seed:int ->
  ?link:link_plan ->
  ?overrides:((int * int) * link_plan) list ->
  ?crashes:(int * float) list ->
  ?injections:injection list ->
  ?partitions:partition list ->
  ?stragglers:(int * float) list ->
  ?max_retries:int ->
  ?rto_ns:float ->
  ?backoff:float ->
  ?rndv_timeout_ns:float ->
  ?hb_period_ns:float ->
  unit ->
  t
(** [make ()] is {!default}; keyword arguments override fields. *)

val link_plan : t -> src:int -> dst:int -> link_plan
(** The effective plan for one direction of a worker pair. *)

val rto : t -> attempt:int -> float
(** [rto_ns *. backoff ^ attempt]: the wait before retransmission
    number [attempt + 1]. *)

val up_at : t -> src:int -> dst:int -> now:float -> float
(** Earliest virtual time [>= now] at which the link is up ([now]
    itself when the link is not flapping or currently up). *)

val crashed : t -> rank:int -> now:float -> bool
(** Linear scan of the plan's crash list.  Hot paths should use
    {!crashed_rt} on a started runtime instead, which answers from a
    per-rank schedule precomputed at {!start}. *)

val earliest_crashes : t -> (int * float) list
(** [(rank, time)] of each rank's earliest crash, ordered by time (ties
    by rank): the schedule the failure detector walks. *)

val crash_time : t -> rank:int -> float option
(** Earliest crash time of [rank] under this plan, if it crashes. *)

val partitioned : t -> src:int -> dst:int -> now:float -> bool
(** Whether the [src -> dst] link is cut by an active partition at
    [now] (exactly one endpoint inside the isolated group). *)

val straggle_factor : t -> rank:int -> float
(** The rank's CPU slowdown factor; exactly [1.] for non-stragglers, so
    multiplying by it is bit-identical to not multiplying at all. *)

val injected :
  t -> src:int -> dst:int -> mseq:int -> frag:int -> inject_kind option
(** The targeted fault registered for this exact fragment, if any.
    Applies only to a fragment's first wire attempt; retransmissions
    are never re-injected. *)

(** {1 Runtime: plan + dedicated decision stream} *)

(** The fate of one wire fragment.  Decisions are mutually independent;
    the transport applies them in the order drop > corrupt > dup. *)
type fate = {
  f_drop : bool;
  f_corrupt : bool;
  f_dup : bool;
  f_delay_ns : float;  (** extra in-flight latency, [0.] if none *)
}

(** One observed fault-injectable wire event, reported through the
    probe tap of a reference run.  [(pb_src, pb_dst, pb_mseq, pb_frag)]
    is the stable injection-point coordinate {!injection} targets;
    [pb_time] anchors crash / partition candidate windows. *)
type probe_kind = Pb_frag  (** first wire attempt of a data fragment *)
  | Pb_ack  (** acknowledgement completing a reliable transfer *)

type probe = {
  pb_kind : probe_kind;
  pb_src : int;
  pb_dst : int;
  pb_mseq : int;
  pb_frag : int;  (** [-1] for {!Pb_ack} *)
  pb_len : int;
  pb_time : float;
}

type runtime
(** A plan paired with its decision stream.  Two runtimes started from
    equal plans draw identical decision sequences. *)

val start : t -> runtime
val plan : runtime -> t

val set_tap : runtime -> (probe -> unit) option -> unit
(** Install (or clear) the probe tap.  The transport reports every
    first-attempt fragment send and every completing ack through it;
    taps observe, they must not mutate simulation state. *)

val notify_tap : runtime -> probe -> unit
(** Used by the transport; no-op when no tap is installed. *)

val crashed_rt : runtime -> rank:int -> now:float -> bool
(** {!crashed}, answered from each crashing rank's earliest crash time,
    built once at {!start}: no hashing or allocation, and an immediate
    [false] when the plan has no crash. *)

val fate : runtime -> src:int -> dst:int -> fate
(** Draw the fate of the next fragment on [src -> dst].  Always
    consumes the same number of stream values regardless of outcome, so
    decision sequences are stable under plan-probability changes. *)

val corrupt_bit : runtime -> len:int -> int * int
(** [(byte, bit)] position of an in-flight single-bit flip in a
    fragment of [len] bytes ([len >= 1]). *)

(** {1 Plan strings}

    The [--faults] CLI flag and the chaos runner describe plans as
    comma-separated [key=value] lists, e.g.
    ["seed=42,drop=0.05,corrupt=0.01,retries=8,rto=50000"].  Keys:
    [seed], [drop], [corrupt], [dup], [delay_p], [delay] (ns),
    [flap=PERIOD/DOWN] (ns), [crash=RANK\@TIME] (repeatable),
    [part=R1.R2\@START+DUR] (repeatable; ranks [R1.R2...] isolated
    during [[START, START+DUR)]), [straggle=RANK\@FACTOR] (repeatable,
    [FACTOR >= 1]), [inj=KIND:SRC.DST.MSEQ.FRAG] (repeatable,
    [KIND in {drop, corrupt}]; targeted first-attempt fault at one
    injection point), [retries], [rto] (ns), [backoff], [rndv_timeout]
    (ns), [hb] (ns, the failure-detector heartbeat period).  Per-link
    overrides have no string syntax; build them with {!make}. *)

val of_string : string -> (t, string) result
val to_string : t -> string
(** Canonical plan string; [of_string (to_string t) = Ok t] for plans
    without overrides. *)

val pp : Format.formatter -> t -> unit
