(** Scalasca-style automatic trace analysis over a finished {!Obs} sink.

    [analyze] reconstructs per-rank timelines from the recorded spans,
    joins each message's send-side and recv-side spans through their
    ["mseq"] args into a cross-rank dependency graph, classifies wait
    states, computes the critical path of the run, and attributes both
    total and critical-path time to phases per rank and per datatype.

    {2 Attribution model}

    Time is attributed on an integer {e picosecond} grid ([1 ns] =
    [1000 ps], timestamps rounded once on entry), so per-rank phase
    sums are {e exactly} conservative: for every rank,
    [pack + wire + unpack + wait + callback + other = total] holds as
    an [Int64] equality, with no floating-point slack.

    Every rank's window is the global trace window.  Each elementary
    interval of a rank's timeline is charged to exactly one phase — the
    highest-priority span covering it:

    + ["callback"] spans (individual pack/unpack callback invocations);
    + pack/unpack protocol phases (["pack"], ["custom_pack"],
      ["unpack"], ["custom_unpack"]);
    + wire protocol phases (["wire"], ["rts"], ["nack"], ["rel_xfer"],
      ["handshake"], and any other ["proto"] span);
    + the ["rndv"] umbrella span (counts as wire);
    + ["p2p"] operation spans — uncovered operation time is {e wait};
    + nothing: idle time ({!Other}).

    {2 Wait-state taxonomy}

    Wait intervals are classified through the message join:
    - {!Late_sender}: a receive-side wait before the message's match
      instant — the sender had not arrived yet;
    - {!Late_receiver}: a send-side wait before the match — the
      receiver had not posted yet (rendezvous sender stalled on RTS);
    - {!Barrier_wait}: waiting inside a barrier (detected through span
      ancestry);
    - {!Rndv_stall}: post-match waiting for the rendezvous
      handshake/transfer to drain;
    - {!Retransmit_stall}: a fault-recovery instant (retransmit, drop,
      nack, backoff, link-down, delivery timeout) on either endpoint
      overlaps the wait;
    - {!Wait_other}: no join (e.g. the message never completed).

    {2 Critical path}

    The critical path walks backward from the end of the trace window:
    work segments are charged to the rank executing them; when the walk
    reaches a wait segment it charges the wait to the {e waiting} rank's
    wait class and jumps to the peer that caused it.  Charged segments
    tile the window exactly, so critical-path time also sums to the
    window length as an [Int64] equality. *)

type phase = Pack | Wire | Unpack | Wait | Callback | Other

type wait_class =
  | Late_sender
  | Late_receiver
  | Barrier_wait
  | Rndv_stall
  | Retransmit_stall
  | Wait_other

type phase_totals = {
  pack : int64;
  wire : int64;
  unpack : int64;
  wait : int64;
  callback : int64;
  other : int64;
}
(** Picoseconds per phase. *)

type wait_totals = {
  late_sender : int64;
  late_receiver : int64;
  barrier : int64;
  rndv_stall : int64;
  retransmit_stall : int64;
  wait_other : int64;
}
(** Picoseconds per wait class; sums to the [wait] phase total. *)

type rank_profile = {
  rank : int;
  total_ps : int64;  (** the global window length *)
  phases : phase_totals;  (** sums exactly to [total_ps] *)
  waits : wait_totals;  (** sums exactly to [phases.wait] *)
  cb_pack_ps : int64;
      (** the subset of [phases.callback] spent in pack callbacks *)
  cb_unpack_ps : int64;  (** ... and in unpack callbacks *)
  cp_phases : phase_totals;  (** critical-path time through this rank *)
  cp_waits : wait_totals;
}

type t = {
  window_ps : int64;  (** trace window length *)
  window_t0_ns : float;  (** window start on the virtual clock *)
  ranks : rank_profile list;  (** ascending by rank *)
  messages_total : int;  (** distinct message sequence numbers seen *)
  messages_joined : int;  (** messages with both send and recv spans *)
  datatypes : (string * phase_totals) list;
      (** time covered by a ["p2p"] op span, bucketed by the op's ["dt"]
          label, ascending by label *)
}

val analyze : Obs.t -> t
(** Offline analysis of a finished sink.  Read-only: never mutates the
    sink, never touches the virtual clock. *)

val total_ns : t -> float
(** Summed rank time (= ranks x window). *)

val wait_class_ns : t -> wait_class -> float

val pack_share : t -> float
(** Fraction of total rank time spent packing: the [Pack] and [Unpack]
    phases plus their callback time, over the summed window.  0 on an
    empty profile. *)

val wait_share : t -> float
(** Fraction of total rank time spent in the [Wait] phase. *)

val to_json : t -> string
(** The [profile.json] document (schema ["mpicd-profile/1"]):
    window/per-rank phase and wait-state attribution, critical path,
    message-join counts and per-datatype breakdown.  Strict JSON;
    {!Json.parse} accepts it. *)

val report : ?top:int -> t -> string
(** Human-readable top-N report: per-rank phase table, wait-state
    breakdown, critical-path summary and the [top] most expensive
    datatypes (default 5). *)

val folded : t -> string
(** Flamegraph-collapsed stacks ([semicolon-separated;stack value]
    lines, value in integer ns): per-rank phase/wait-class stacks under
    [rank N;...] plus critical-path stacks under [critical-path;...].
    Feed to [flamegraph.pl] or speedscope. *)
