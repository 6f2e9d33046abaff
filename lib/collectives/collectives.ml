module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module K = Mpi.Internal

(* Internal tag layout: seq * 4096 + opcode * 1024 + round.  Sequence
   numbers come from the shared per-communicator counter, so SPMD
   ordering keeps all ranks in agreement; per-channel FIFO matching
   makes residual numeric collisions harmless. *)
let op_barrier = 0
let op_bcast = 1
let op_move = 2 (* gather / scatter / allgather rounds *)
let op_reduce = 3

let tag_of ~seq ~op ~round =
  (* Rounds wrap modulo the 10-bit field: the ring allgather posts one
     round per peer, so worlds past 1025 ranks reuse round tags — but
     reuse happens in posting order on a single (src, dst, kind)
     channel, where FIFO matching keeps it unambiguous.  For n <= 1025
     the encoding is unchanged. *)
  (seq * 4096) + (op * 1024) + (round land 1023)

(* Failure protection shared by every collective, written as
   [if ready comm then try body with Mpi.Mpi_error err -> failed comm
   err] so that a waiting rank holds no closure of its body.  The
   sequence number must already have been taken (so ranks that fail
   fast stay aligned with ranks that run the body).  A body that posts
   nonblocking sends passes [tracked] and applies [track tracked] to
   each one.  When any internal operation raises, we poison the
   collective for our peers, then drain the tracked requests —
   [Mpi.wait] on an already-finalized request replays its memoized
   outcome, so datatype callback state is released exactly once even
   on abort — and finally surface the error through the communicator's
   error handler. *)
let ready comm =
  match K.collective_ready comm with
  | Some err ->
      K.collective_error comm err;
      false
  | None -> true

let failed ?tracked comm err =
  K.poison_collective comm err;
  (match tracked with
  | Some t -> List.iter (fun r -> try ignore (Mpi.wait r) with _ -> ()) !t
  | None -> ());
  K.collective_error comm err

let track tracked r =
  tracked := r :: !tracked;
  r

let barrier comm =
  let n = Mpi.size comm and me = Mpi.rank comm in
  let seq = K.fresh_seq comm in
  let tracked = ref [] in
  if ready comm then
    try
      if n > 1 then begin
        let round = ref 0 in
        let dist = ref 1 in
        while !dist < n do
          let to_ = (me + !dist) mod n in
          let from = (me - !dist + n) mod n in
          let tag = tag_of ~seq ~op:op_barrier ~round:!round in
          let s = track tracked (K.isend_k comm K.Internal ~dst:to_ ~tag K.empty) in
          ignore (K.recv_k comm K.Internal ~source:from ~tag K.empty);
          ignore (Mpi.wait s);
          incr round;
          dist := !dist * 2
        done
      end
    with Mpi.Mpi_error err -> failed ~tracked comm err

let bcast comm ~root buf =
  let n = Mpi.size comm and me = Mpi.rank comm in
  if root < 0 || root >= n then invalid_arg "Collectives.bcast: bad root";
  let seq = K.fresh_seq comm in
  if ready comm then
    try
      if n > 1 then begin
        let tag = tag_of ~seq ~op:op_bcast ~round:0 in
        let vrank = (me - root + n) mod n in
        (* find the lowest set bit of vrank (or the first power >= n for
           the root), receiving from the parent on the way *)
        let mask = ref 1 in
        while !mask < n && vrank land !mask = 0 do
          mask := !mask * 2
        done;
        if vrank <> 0 then begin
          let parent = (vrank - !mask + root) mod n in
          ignore (K.recv_k comm K.Internal ~source:parent ~tag buf)
        end;
        (* forward to children *)
        mask := !mask / 2;
        while !mask >= 1 do
          let vchild = vrank + !mask in
          if vchild < n then begin
            let child = (vchild + root) mod n in
            K.send_k comm K.Internal ~dst:child ~tag buf
          end;
          mask := !mask / 2
        done
      end
    with Mpi.Mpi_error err -> failed comm err

let gather comm ~root ~send ~recv =
  let n = Mpi.size comm and me = Mpi.rank comm in
  if root < 0 || root >= n then invalid_arg "Collectives.gather: bad root";
  let seq = K.fresh_seq comm in
  if ready comm then
    try
      let tag = tag_of ~seq ~op:op_move ~round:0 in
      if me = root then
        for i = 0 to n - 1 do
          if i <> root then ignore (K.recv_k comm K.Internal ~source:i ~tag (recv i))
        done
      else K.send_k comm K.Internal ~dst:root ~tag send
    with Mpi.Mpi_error err -> failed comm err

let scatter comm ~root ~send ~recv =
  let n = Mpi.size comm and me = Mpi.rank comm in
  if root < 0 || root >= n then invalid_arg "Collectives.scatter: bad root";
  let seq = K.fresh_seq comm in
  if ready comm then
    try
      let tag = tag_of ~seq ~op:op_move ~round:0 in
      if me = root then
        for i = 0 to n - 1 do
          if i <> root then K.send_k comm K.Internal ~dst:i ~tag (send i)
        done
      else ignore (K.recv_k comm K.Internal ~source:root ~tag recv)
    with Mpi.Mpi_error err -> failed comm err

let allgather comm ~send ~recv =
  let n = Mpi.size comm and me = Mpi.rank comm in
  let seq = K.fresh_seq comm in
  let tracked = ref [] in
  if ready comm then
    try
      if n > 1 then begin
        let right = (me + 1) mod n and left = (me - 1 + n) mod n in
        (* ring: in round s we forward the contribution of rank
           (me - s) mod n and receive that of (me - s - 1) mod n *)
        for s = 0 to n - 2 do
          let tag = tag_of ~seq ~op:op_move ~round:s in
          let outgoing_owner = (me - s + n) mod n in
          let incoming_owner = (me - s - 1 + n) mod n in
          let out = if outgoing_owner = me then send else recv outgoing_owner in
          let inc = recv incoming_owner in
          let sreq = track tracked (K.isend_k comm K.Internal ~dst:right ~tag out) in
          ignore (K.recv_k comm K.Internal ~source:left ~tag inc);
          ignore (Mpi.wait sreq)
        done
      end
    with Mpi.Mpi_error err -> failed ~tracked comm err

let alltoall comm ~send ~recv =
  let n = Mpi.size comm and me = Mpi.rank comm in
  let seq = K.fresh_seq comm in
  let tracked = ref [] in
  if ready comm then
    try
      let tag = tag_of ~seq ~op:op_move ~round:1 in
      (* pairwise exchange schedule: in round r, partner = me xor r (for
         power-of-two sizes) falling back to shifted pairing otherwise *)
      let reqs = ref [] in
      for peer = 0 to n - 1 do
        if peer <> me then
          reqs :=
            track tracked (K.isend_k comm K.Internal ~dst:peer ~tag (send peer)) :: !reqs
      done;
      for peer = 0 to n - 1 do
        if peer <> me then
          ignore (K.irecv_k comm K.Internal ~source:peer ~tag (recv peer) |> Mpi.wait)
      done;
      List.iter (fun r -> ignore (Mpi.wait r)) !reqs

    (* --- float64 reductions --- *)
    with Mpi.Mpi_error err -> failed ~tracked comm err

let floats_into b fs =
  Buf.blit_to_floats ~src:b ~src_pos:0 ~dst:fs ~dst_pos:0 ~len:(Array.length fs)

let floats_out fs b =
  Buf.blit_from_floats fs ~src_pos:0 ~dst:b ~dst_pos:0 ~len:(Array.length fs)

(* One loop per operator: applying [( +. )] as a closure would box both
   operands of every element. *)
let apply_op op (a : float array) (incoming : float array) =
  let n = Array.length a in
  match op with
  | `Sum ->
      for i = 0 to n - 1 do
        a.(i) <- a.(i) +. incoming.(i)
      done
  | `Max ->
      for i = 0 to n - 1 do
        a.(i) <- Float.max a.(i) incoming.(i)
      done
  | `Min ->
      for i = 0 to n - 1 do
        a.(i) <- Float.min a.(i) incoming.(i)
      done

(* Binomial-tree reduction to [root] through [staging], an [8 * length
   data] byte buffer: every child's message lands in it, and the
   partial result leaves from it. *)
let reduce_staged comm ~root ~op data staging =
  let n = Mpi.size comm and me = Mpi.rank comm in
  if root < 0 || root >= n then invalid_arg "Collectives.reduce_f64: bad root";
  let seq = K.fresh_seq comm in
  if ready comm then
    try
      if n > 1 then begin
        let vrank = (me - root + n) mod n in
        let msg = Mpi.Bytes staging in
        let tag = tag_of ~seq ~op:op_reduce ~round:0 in
        let mask = ref 1 in
        let continue = ref true in
        while !continue && !mask < n do
          if vrank land !mask = 0 then begin
            let vchild = vrank + !mask in
            if vchild < n then begin
              let child = (vchild + root) mod n in
              ignore (K.recv_k comm K.Internal ~source:child ~tag msg);
              (* decoded right away, so nothing of it outlives the receive *)
              let incoming = Array.make (Array.length data) 0. in
              floats_into staging incoming;
              apply_op op data incoming
            end
          end
          else begin
            let parent = ((vrank - !mask) + root) mod n in
            floats_out data staging;
            K.send_k comm K.Internal ~dst:parent ~tag msg;
            continue := false
          end;
          mask := !mask * 2
        done
      end
    with Mpi.Mpi_error err -> failed comm err

let reduce_f64 comm ~root ~op data =
  reduce_staged comm ~root ~op data (Buf.create (8 * Array.length data))

(* One staging buffer carries the whole call: the children's messages,
   the send to the parent, and the broadcast, which only the root's
   reduced values fill before it travels.  The rank keeps it for its
   next call, so a waiting rank holds an old buffer, not a fresh
   bigarray that the minor GC would promote and the major GC free. *)
let allreduce_f64 comm ~op data =
  let staging = K.staging comm (8 * Array.length data) in
  reduce_staged comm ~root:0 ~op data staging;
  if Mpi.rank comm = 0 then floats_out data staging;
  bcast comm ~root:0 (Mpi.Bytes staging);
  floats_into staging data;
  (* only a clean call hands it back: a failed one has poisoned the
     communicator's collectives, and may have left a transfer that
     still writes into the buffer *)
  if Option.is_none (K.collective_ready comm) then K.keep_staging comm staging

(* --- fault-tolerant allreduce --- *)

let process_failure = function
  | Mpi.Peer_failed _ | Mpi.Revoked | Mpi.Timeout _ | Mpi.Data_corrupted ->
      true
  | _ -> false

let resilient_allreduce_f64 ?max_attempts ?(on_shrink = fun _ -> ()) comm ~op
    data =
  let max_attempts =
    match max_attempts with Some m -> m | None -> Mpi.size comm + 2
  in
  (* Keep a pristine copy of the local contribution: a failed attempt
     may have partially reduced [data] (non-root ranks use it as
     scratch), so every retry restarts from the original values. *)
  let orig = Array.copy data in
  (* A stashed process failure, under [Errors_return]. *)
  let stashed comm =
    match Mpi.last_error comm with
    | Some err when process_failure err ->
        Mpi.clear_last_error comm;
        Some err
    | _ -> None
  in
  let rec attempt comm shrinks attempts =
    Array.blit orig 0 data 0 (Array.length orig);
    let failed =
      match allreduce_f64 comm ~op data with
      | () -> stashed comm
      | exception Mpi.Mpi_error err when process_failure err -> Some err
    in
    (* Commit or retry must be decided uniformly: a rank whose attempt
       happened to complete before a peer died would otherwise return
       while the others shrink — and the shrink agreement would wait
       for it forever.  So every attempt ends with a fault-tolerant
       agreement on collective success (the canonical ULFM loop).
       Failures already known locally are acknowledged first, so a
       crash that only interrupted {e other} ranks' attempts does not
       turn the agreement itself into an error here. *)
    Mpi.comm_failure_ack comm;
    let ok =
      match Mpi.comm_agree comm ~flags:(if failed = None then 1 else 0) with
      | v -> ( match stashed comm with Some _ -> false | None -> v land 1 = 1)
      | exception Mpi.Mpi_error err when process_failure err -> false
    in
    if ok then (comm, shrinks)
    else if attempts >= max_attempts then
      raise
        (Mpi.Mpi_error
           (match failed with Some err -> err | None -> Mpi.Revoked))
    else begin
      (* Flush every member out of the broken pattern, then rebuild on
         the survivors and retry.  A process failure shrinks the group,
         so progress is guaranteed; [max_attempts] only guards against
         non-crash errors (e.g. [Timeout] on a hopeless link) repeating
         on an undiminished group. *)
      Mpi.comm_revoke comm;
      let comm' = Mpi.comm_shrink comm in
      on_shrink comm';
      attempt comm' (shrinks + 1) (attempts + 1)
    end
  in
  attempt comm 0 1
