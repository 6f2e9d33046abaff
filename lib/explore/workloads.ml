(* Reference workloads the fault-space explorer drives.

   Each workload is a small SPMD program with a built-in oracle: run it
   under a fault plan and it reports a canonical per-rank outcome render
   (byte-compared across replays) plus the list of oracle violations.
   The oracles encode what resilience promises under each fault class —
   a hang, a damaged payload, a non-uniform commit, or an error without
   an excusing fault is always a counterexample; process-failure errors
   are legitimate exactly when the plan schedules a cause (crash,
   partition, or a straggler past the detector threshold). *)

module Buf = Mpicd_buf.Buf
module Config = Mpicd_simnet.Config
module Engine = Mpicd_simnet.Engine
module Fault = Mpicd_simnet.Fault
module Stats = Mpicd_simnet.Stats
module Mpi = Mpicd.Mpi
module Coll = Mpicd_collectives.Collectives

type result = {
  res_render : string;
  res_failures : string list;
  res_stats : Stats.t;
  res_scans : int;
}

type t = {
  wl_name : string;
  wl_descr : string;
  wl_size : int;
  wl_config : Config.t;
  wl_base : Fault.t;
  wl_run : ?tap:(Fault.probe -> unit) -> Fault.t -> result;
}

let error_name = function
  | Mpi.Truncated _ -> "truncated"
  | Mpi.Callback_failed c -> Printf.sprintf "callback_failed:%d" c
  | Mpi.Timeout { retries } -> Printf.sprintf "timeout:%d" retries
  | Mpi.Peer_failed { peer } -> Printf.sprintf "peer_failed:%d" peer
  | Mpi.Data_corrupted -> "data_corrupted"
  | Mpi.Revoked -> "revoked"

let is_error o = String.length o >= 4 && String.sub o 0 4 = "err:"
let is_damaged o = String.length o >= 8 && String.sub o 0 8 = "damaged:"

(* Which plans excuse an error outcome: anything that can legitimately
   kill or evict a rank.  A straggler is a cause only past the
   false-positive threshold of the heartbeat detector (the same rule
   [Ucx] applies). *)
let has_cause (cfg : Config.t) (plan : Fault.t) =
  let l = cfg.Config.link in
  plan.Fault.crashes <> []
  || plan.Fault.partitions <> []
  || plan.Fault.hb_period_ns > 0.
     && List.exists
          (fun (_, f) ->
            f *. 2. *. l.Config.latency_ns
            > plan.Fault.hb_period_ns +. (2. *. l.Config.latency_ns))
          plan.Fault.stragglers

(* The counters that distinguish outcomes; per-rank renders plus this
   line are what replays must reproduce byte-identically. *)
let stats_line (s : Stats.t) =
  Printf.sprintf
    "stats: retx=%d drops=%d parts=%d inj=%d timeouts=%d failures=%d \
     cancelled=%d revokes=%d shrinks=%d agreements=%d"
    (Stats.get s Retransmits) (Stats.get s Frags_dropped)
    (Stats.get s Partition_drops) (Stats.get s Injections_fired)
    (Stats.get s Delivery_timeouts) (Stats.get s Failures_detected)
    (Stats.get s Ops_cancelled) (Stats.get s Comm_revokes)
    (Stats.get s Comm_shrinks) (Stats.get s Comm_agreements)

let render ~outcomes ~hang ~stats =
  String.concat "\n"
    (Array.to_list (Array.mapi (fun r o -> Printf.sprintf "rank%d: %s" r o) outcomes)
    @ [ (if hang then "hang: yes" else "hang: no"); stats_line stats ])

(* Shared runner: build a world, attach plan (and tap), run [body] on
   every rank, convert a deadlock into the hang flag, and apply the
   baseline oracle rules every workload shares. *)
let run_world ~config ~size ~tap ~plan body ~extra_oracle =
  let w = Mpi.create_world ~config ~size () in
  Mpi.set_faults w (Some plan);
  (match tap with None -> () | Some _ -> Mpi.set_fault_tap w tap);
  let outcomes = Array.make size "none" in
  let hang = ref false in
  (try Mpi.run w (fun c -> body c outcomes) with
  | Engine.Deadlock _ -> hang := true
  | Mpi.Aborted _ -> hang := true);
  let stats = Mpi.world_stats w in
  let fails = ref [] in
  let addf m = fails := m :: !fails in
  if !hang then addf "hang: engine deadlocked";
  Array.iteri
    (fun r o ->
      if o = "none" then
        addf (Printf.sprintf "hang: rank %d recorded no outcome" r))
    outcomes;
  Array.iteri
    (fun r o ->
      if is_damaged o then addf (Printf.sprintf "conservation: rank %d %s" r o))
    outcomes;
  if not (has_cause config plan) then
    Array.iteri
      (fun r o ->
        if is_error o then
          addf (Printf.sprintf "error-without-cause: rank %d %s" r o))
      outcomes;
  extra_oracle ~plan ~outcomes ~addf;
  {
    res_render = render ~outcomes ~hang:!hang ~stats;
    res_failures = List.rev !fails;
    res_stats = stats;
    res_scans = Engine.scans (Mpi.world_engine w);
  }

(* --- revoke-rescue ---

   The ULFM revoke-rescue pattern on a 4-rank dependency chain:

     rank 3: send A->2; recv B<-2
     rank 2: recv A<-3; ping-pong with 1; send B->3; send B->1
     rank 1: ping-pong with 2; recv B<-2... (via 2's final send); send B->0
     rank 0: recv B<-1

   Ranks 0 and 1 block on {e alive} peers, so when a failure makes an
   upstream rank abandon the pattern, only the comm_revoke broadcast of
   the first rank that observes the failure can release them.  This is
   exactly the pattern the historical comm_revoke one-shot-flag bug
   broke: a dead rank claiming the flag starved the survivors' revoke
   and ranks 0/1 deadlocked.  Every error handler revokes, as the ULFM
   recipe prescribes. *)

let revoke_rescue_size = 4
let payload_bytes = 1024
let pp_rounds = 30

(* Each source rank's reference payload, built once and never written:
   senders send a copy, receivers compare against it. *)
let patterns =
  Array.init revoke_rescue_size (fun src ->
      let b = Buf.create payload_bytes in
      for i = 0 to payload_bytes - 1 do
        Buf.set_u8 b i ((src * 37) + i land 0xff)
      done;
      b)

let check_pattern ~src b = Buf.equal b patterns.(src)

(* One send and one receive buffer per rank, shared by every run: a
   send refills its buffer from the rank's pattern, and a receive zeroes
   its buffer first, so a receive that lands nothing reads as damaged. *)
let send_bufs = Array.init revoke_rescue_size (fun _ -> Buf.create payload_bytes)
let recv_bufs = Array.init revoke_rescue_size (fun _ -> Buf.create payload_bytes)

let tag_a = 1
let tag_b = 2
let tag_pp = 3

let revoke_rescue_body c outcomes =
  let me = Mpi.rank c in
  let result = ref "ok" in
  let send_pat dst tag =
    let b = send_bufs.(me) in
    Buf.blit ~src:patterns.(me) ~src_pos:0 ~dst:b ~dst_pos:0 ~len:payload_bytes;
    Mpi.send c ~dst ~tag (Mpi.Bytes b)
  in
  let recv_pat src tag =
    let b = recv_bufs.(me) in
    Buf.fill b '\000';
    ignore (Mpi.recv c ~source:src ~tag (Mpi.Bytes b));
    if not (check_pattern ~src b) then
      result := Printf.sprintf "damaged: from rank %d" src
  in
  (try
     (match me with
     | 3 ->
         send_pat 2 tag_a;
         recv_pat 2 tag_b
     | 2 ->
         recv_pat 3 tag_a;
         for _ = 1 to pp_rounds do
           recv_pat 1 tag_pp;
           send_pat 1 tag_pp
         done;
         send_pat 3 tag_b;
         send_pat 1 tag_b
     | 1 ->
         for _ = 1 to pp_rounds do
           send_pat 2 tag_pp;
           recv_pat 2 tag_pp
         done;
         recv_pat 2 tag_b;
         send_pat 0 tag_b
     | 0 -> recv_pat 1 tag_b
     | _ -> ());
     outcomes.(me) <- !result
   with Mpi.Mpi_error err ->
     outcomes.(me) <- "err:" ^ error_name err;
     (* the canonical ULFM rescue: whoever observes a failure revokes so
        ranks blocked on alive-but-aborted peers are released *)
     Mpi.comm_revoke c)

let revoke_rescue_base =
  Fault.make ~max_retries:4 ~rto_ns:5_000. ~hb_period_ns:50_000. ()

let revoke_rescue =
  let config = Config.default in
  let size = revoke_rescue_size in
  {
    wl_name = "revoke-rescue";
    wl_descr =
      "4-rank dependency chain where only a comm_revoke broadcast can \
       release downstream ranks blocked on alive peers";
    wl_size = size;
    wl_config = config;
    wl_base = revoke_rescue_base;
    wl_run =
      (fun ?tap plan ->
        run_world ~config ~size ~tap ~plan revoke_rescue_body
          ~extra_oracle:(fun ~plan:_ ~outcomes:_ ~addf:_ -> ()));
  }

(* --- resilient allreduce ---

   The canonical ack/agree/revoke/shrink retry loop over a float64 sum.
   Oracle: every committed rank reports the same digest (uniform
   commit); without faults the digest is the exact full-group sum; a
   rank that is neither crashed nor evicted must commit. *)

let allreduce_floats = 256

let allreduce_body c outcomes =
  let me = Mpi.rank c in
  let data =
    Array.init allreduce_floats (fun i -> float_of_int ((me * 1000) + i))
  in
  try
    let _c', attempts = Coll.resilient_allreduce_f64 c ~op:`Sum data in
    let digest =
      Array.fold_left (fun acc v -> (acc *. 31.) +. v) 0. data
    in
    outcomes.(me) <- Printf.sprintf "ok: digest=%h attempts=%d" digest attempts
  with Mpi.Mpi_error err -> outcomes.(me) <- "err:" ^ error_name err

let allreduce_expected_digest ~size =
  let sum i =
    let n = float_of_int size in
    (* sum over ranks r of (r*1000 + i) *)
    (n *. float_of_int i)
    +. (1000. *. (n -. 1.) *. n /. 2.)
  in
  let data = Array.init allreduce_floats sum in
  Array.fold_left (fun acc v -> (acc *. 31.) +. v) 0. data

let is_ok o = String.starts_with ~prefix:"ok:" o

(* Does [needle] occur in [hay] at or after [i]?  Compares in place,
   without building substrings or closures. *)
let rec occurs_at hay needle i j =
  j = String.length needle
  || String.unsafe_get hay (i + j) = String.unsafe_get needle j
     && occurs_at hay needle i (j + 1)

let rec contains_from hay needle i =
  i + String.length needle <= String.length hay
  && (occurs_at hay needle i 0 || contains_from hay needle (i + 1))

(* [want] is the fault-free digest field, rendered once per workload. *)
let allreduce_oracle ~config ~want ~plan ~outcomes ~addf =
  let oks = Array.to_list outcomes |> List.filter is_ok in
  (match oks with
  | [] ->
      if Array.length outcomes > 0 then addf "recovery: no rank committed"
  | first :: rest ->
      let digest_of o =
        match String.index_opt o '=' with
        | Some i -> (
            let rest = String.sub o (i + 1) (String.length o - i - 1) in
            match String.index_opt rest ' ' with
            | Some j -> String.sub rest 0 j
            | None -> rest)
        | None -> o
      in
      List.iter
        (fun o ->
          if digest_of o <> digest_of first then
            addf
              (Printf.sprintf "uniformity: commits disagree (%s vs %s)" first o))
        rest);
  if not (has_cause config plan) then
    Array.iteri
      (fun r o ->
        if is_ok o && not (contains_from o want 0) then
          addf
            (Printf.sprintf "conservation: rank %d committed wrong sum (%s)" r o))
      outcomes;
  (* ranks with no scheduled cause must commit *)
  let l = config.Config.link in
  let declared_straggler r =
    plan.Fault.hb_period_ns > 0.
    && List.exists
         (fun (rr, f) ->
           rr = r
           && f *. 2. *. l.Config.latency_ns
              > plan.Fault.hb_period_ns +. (2. *. l.Config.latency_ns))
         plan.Fault.stragglers
  in
  Array.iteri
    (fun r o ->
      if
        is_error o
        && Fault.crash_time plan ~rank:r = None
        && not (declared_straggler r)
        && plan.Fault.partitions = []
      then
        addf
          (Printf.sprintf "recovery: surviving rank %d failed to commit (%s)" r
             o))
    outcomes

let allreduce =
  let config = Config.default in
  let size = 4 in
  let base = Fault.make ~max_retries:4 ~rto_ns:5_000. ~hb_period_ns:50_000. () in
  let want = Printf.sprintf "digest=%h" (allreduce_expected_digest ~size) in
  {
    wl_name = "allreduce";
    wl_descr =
      "resilient float64 sum in the canonical ULFM ack/agree/revoke/shrink \
       retry loop; commits must be uniform and conservative";
    wl_size = size;
    wl_config = config;
    wl_base = base;
    wl_run =
      (fun ?tap plan ->
        run_world ~config ~size ~tap ~plan allreduce_body
          ~extra_oracle:(allreduce_oracle ~config ~want));
  }

let all = [ revoke_rescue; allreduce ]
let find name = List.find_opt (fun w -> w.wl_name = name) all
