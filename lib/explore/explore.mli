(** Deterministic fault-space exploration with counterexample
    minimization.

    Pipeline: {!record} a fault-free reference run to enumerate
    injection points → {!search} schedules of up to [k] simultaneous
    faults (bounded-exhaustive with state-fingerprint pruning, or
    biased-random under a budget) → {!shrink} any failing schedule to a
    locally minimal one → {!replay} it for byte-identical determinism →
    emit a [repro.json] artifact ({!repro_to_json}) that
    [mpicd_chaos --replay] re-executes exactly.

    Every schedule is expressed in the {!Mpicd_simnet.Fault} plan
    grammar, so a counterexample is an ordinary fault plan: there is no
    separate replay engine to trust.  See docs/FAULTS.md. *)

(** One scheduled fault.  The constructors mirror the plan grammar:
    crashes ([crash=R\@T]), targeted single-shot injections
    ([inj=KIND:SRC.DST.MSEQ.FRAG]), network partitions
    ([part=GROUP\@START+DUR]) and stragglers ([straggle=R\@F]). *)
type fault =
  | F_crash of int * float
  | F_inject of Mpicd_simnet.Fault.injection
  | F_partition of Mpicd_simnet.Fault.partition
  | F_straggle of int * float

type kind = [ `Crash | `Drop | `Corrupt | `Partition | `Straggle ]

val all_kinds : kind list
val kind_of_fault : fault -> kind
val kind_of_string : string -> kind option

val fault_id : fault -> string
(** Stable human-readable ID of an injection point — the same string
    names the same event on every re-run of the same workload. *)

val plan_of_schedule : Mpicd_simnet.Fault.t -> fault list -> Mpicd_simnet.Fault.t
(** Extend a base plan with a schedule.  Schedules are treated as sets:
    faults are sorted by {!fault_id} first, so equal sets always build
    plans with equal renders. *)

val fingerprint : string -> string
(** CRC-32 (hex) of a canonical render; the state fingerprint used for
    equivalence-class pruning and replay comparison. *)

(** {1 Recording} *)

type timeline = {
  tl_points : fault list;  (** candidate single faults, stable order *)
  tl_t0 : float;  (** first probe time of the reference run *)
  tl_t1 : float;  (** last probe time of the reference run *)
  tl_reference : Workloads.result;  (** the fault-free run *)
}

val record : Workloads.t -> timeline
(** Run the workload fault-free under a probe tap and derive the
    injection-point set: drop/corrupt coordinates from first-attempt
    fragments, per-rank crash candidates at activity midpoints (plus one
    past the end), single-rank partition windows sized well inside the
    retry budget, and sub-threshold straggler factors.  Point counts are
    capped (evenly sampled) to keep bounded-exhaustive sweeps tractable.
    Raises [Invalid_argument] if the reference run itself violates the
    workload's oracle. *)

(** {1 Search} *)

type cex = {
  cex_sched : fault list;
  cex_plan : Mpicd_simnet.Fault.t;
  cex_failures : string list;
  cex_render : string;
  cex_fingerprint : string;
}

type report = {
  rp_runs : int;
  rp_points : int;
  rp_classes : int;
  rp_pruned : int;
  rp_truncated : bool;
  rp_cexs : cex list;
}

type mode = Exhaustive | Random

val search :
  ?k:int ->
  ?budget:int ->
  ?kinds:kind list ->
  ?mode:mode ->
  ?seed:int ->
  Workloads.t ->
  timeline ->
  report
(** Explore schedules of up to [k] simultaneous faults drawn from the
    timeline's points (filtered to [kinds]), running at most [budget]
    executions.  [Exhaustive] sweeps every single fault, folds points
    with identical execution renders into fingerprint classes, then
    pairs class representatives at [k >= 2]; [Random] samples schedules
    with the seeded simulator RNG (deterministic per [seed]).
    [rp_truncated] reports an exhausted budget — never silently. *)

val category : string list -> string
(** Failure category of an oracle report: the prefix of its first
    violation (["hang"], ["conservation"], ...), used to decide that a
    shrunk schedule still exhibits {e the same} failure. *)

(** {1 Shrinking and replay} *)

val shrink : Workloads.t -> cex -> cex
(** Delta-debug to local minimality: greedily drop single faults while
    the same failure category persists, then canonicalize crash times
    onto a 1000 ns grid.  The result is 1-minimal — removing any one
    remaining fault makes the failure disappear. *)

val replay : Workloads.t -> Mpicd_simnet.Fault.t -> (Workloads.result, string) result
(** Run the plan twice; [Ok] with the result only if both executions
    render byte-identically. *)

(** {1 Repro artifacts} *)

val repro_to_json : wl:Workloads.t -> mutations:string list -> cex -> string
(** Serialize a counterexample as a [repro.json] document (validated
    against the strict parser before being returned).  [mutations]
    records any seeded-bug flags that were active, so a replay can
    restore them. *)

type repro = {
  rj_workload : string;
  rj_size : int;
  rj_plan : Mpicd_simnet.Fault.t;
  rj_failure : string;
  rj_fingerprint : string;
  rj_render : string;
  rj_mutations : string list;
}

val repro_of_json : string -> (repro, string) result
