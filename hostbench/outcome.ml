(* What one workload run hands back to [Benchmark]. *)

type t = {
  setup_s : float array;  (** host seconds of each set-up repetition *)
  ops_ns : float array;  (** host time of every timed op, in order *)
  traced : bool array;
      (** whether spans were recorded during each timed op (only ever
          true in a traced run, for every other unit of work) *)
  batch : int;
      (** consecutive ops averaged into one sample of the op-time
          percentiles: 1 where ops are alike, more where they differ *)
  measured_s : float;  (** host seconds from the first op to the last *)
  attempted : int;  (** ops run, timed or gate-only *)
  peak_rss_mb : float;
      (** the process's VmHWM once the fixed part of the work is done:
          the first pass of [figures], the pinned allreduce round, the
          first two fault-sweep passes *)
  failed : int;  (** ops that failed a correctness gate *)
  errors : string list;  (** the first few failure descriptions *)
  extra : (string * float) list;
      (** workload-specific numbers for the trace file (per-artifact
          times, counters) *)
}

(* Counts failed ops and keeps the first few reasons. *)
type failures = { mutable count : int; mutable msgs : string list }

let failures () = { count = 0; msgs = [] }

let fail f msg =
  f.count <- f.count + 1;
  if f.count <= 10 then f.msgs <- msg :: f.msgs

let failf f fmt = Printf.ksprintf (fail f) fmt

let errors f = List.rev f.msgs

(* Run [f] as one op: an exception is a failed op, never a crash of the
   benchmark. *)
let guarded f ~what g =
  match g () with
  | () -> ()
  | exception e -> failf f "%s: %s" what (Printexc.to_string e)
