module Mpi = Mpicd.Mpi
module Monitor = Mpicd.Mpi.Monitor
module Engine = Mpicd_simnet.Engine
module Config = Mpicd_simnet.Config
module Stats = Mpicd_simnet.Stats

let analyzer = "comm-match"

(* A channel is the matching domain of MPI point-to-point traffic:
   messages between one (source, destination) pair on one communicator
   with one tag preserve order, so within a channel pairing is FIFO. *)
type channel = {
  ch_src : int;
  ch_dst : int;
  ch_cid : int;
  ch_kind : int;
  ch_tag : int;
}

let describe_op (o : Monitor.op) =
  Printf.sprintf "%s by rank %d (peer %s, tag %s, cid %d)"
    (match o.kind with Monitor.Send -> "send" | Monitor.Recv -> "recv")
    o.rank
    (if o.peer < 0 then "ANY" else string_of_int o.peer)
    (if o.tag < 0 then "ANY" else string_of_int o.tag)
    o.cid

let pp_rle s =
  if s = [] then "<empty>"
  else
    String.concat "+"
      (List.map
         (fun (p, n) ->
           Printf.sprintf "%s x%d"
             (Mpicd_datatype.Datatype.to_string
                (Mpicd_datatype.Datatype.predefined p))
             n)
         s)

(* [prefix_rest send recv] checks that the send signature is a prefix of
   the receive signature (MPI allows receiving into a bigger type);
   returns [None] on mismatch. *)
let rec prefix_rest send recv =
  match (send, recv) with
  | [], r -> Some r
  | _ :: _, [] -> None
  | (p, n) :: s', (q, m) :: r' ->
      if p <> q then None
      else if n < m then if s' = [] then Some ((q, m - n) :: r') else None
      else if n = m then prefix_rest s' r'
      else prefix_rest ((p, n - m) :: s') r'

let analyze ~subject ~world_size ~deadlocked (m : Monitor.t) =
  let acc = ref [] in
  let add ?suggestion ~id ~severity msg =
    acc := Finding.make ?suggestion ~id ~severity ~analyzer ~subject msg :: !acc
  in
  let outcomes = Monitor.outcomes m in
  let pending = Monitor.pending m in
  (* --- transport-reported errors on completed operations --- *)
  List.iter
    (fun (o : Monitor.outcome) ->
      match o.o_error with
      | None -> ()
      | Some err ->
          let id =
            if String.length err >= 8 && String.sub err 0 8 = "callback" then
              "MATCH-CALLBACK-FAILED"
            else "MATCH-TRUNCATION"
          in
          let suggestion =
            if id = "MATCH-TRUNCATION" then
              Some
                "size the receive buffer for the largest message the sender \
                 may produce; probe/mprobe when the size is dynamic"
            else None
          in
          add ~id ~severity:Finding.Error ?suggestion
            (Printf.sprintf "%s failed: %s" (describe_op o.o_op) err))
    outcomes;
  (* --- pair completed sends and receives per channel, FIFO --- *)
  let module CM = Map.Make (struct
    type t = channel

    let compare = compare
  end) in
  let push key o map =
    CM.update key
      (function None -> Some [ o ] | Some l -> Some (o :: l))
      map
  in
  let sends, recvs =
    List.fold_left
      (fun (s, r) (o : Monitor.outcome) ->
        let op = o.o_op in
        match op.kind with
        | Monitor.Send ->
            let key =
              {
                ch_src = op.rank;
                ch_dst = op.peer;
                ch_cid = op.cid;
                ch_kind = op.channel_kind;
                ch_tag = op.tag;
              }
            in
            (push key o s, r)
        | Monitor.Recv ->
            (* completed receives know their true source and tag *)
            let key =
              {
                ch_src = o.o_peer;
                ch_dst = op.rank;
                ch_cid = op.cid;
                ch_kind = op.channel_kind;
                ch_tag = o.o_tag;
              }
            in
            (s, push key o r))
      (CM.empty, CM.empty) outcomes
  in
  CM.iter
    (fun key sl ->
      let rl = try CM.find key recvs with Not_found -> [] in
      let rec pair = function
        | [], _ | _, [] -> ()
        | (s : Monitor.outcome) :: sl', (r : Monitor.outcome) :: rl' ->
            (if s.o_error = None && r.o_error = None then
               let sop = s.o_op and rop = r.o_op in
               if key.ch_kind = 0 then
                 match (sop.dt_class, rop.dt_class) with
                 | Monitor.Dc_custom, _ | _, Monitor.Dc_custom ->
                     () (* custom layouts are opaque by design *)
                 | Monitor.Dc_typed, Monitor.Dc_typed -> (
                     match prefix_rest sop.signature rop.signature with
                     | Some _ -> ()
                     | None ->
                         add ~id:"MATCH-TYPE-MISMATCH" ~severity:Finding.Error
                           ~suggestion:
                             "sender and receiver must use type signatures \
                              where the send signature is a prefix of the \
                              receive signature (MPI 3.1 §3.3.1)"
                           (Printf.sprintf
                              "%s carries signature %s but the matching %s \
                               expects %s"
                              (describe_op sop) (pp_rle sop.signature)
                              (describe_op rop) (pp_rle rop.signature)))
                 | _ ->
                     if
                       (sop.dt_class = Monitor.Dc_bytes)
                       <> (rop.dt_class = Monitor.Dc_bytes)
                     then
                       add ~id:"MATCH-TYPE-MISMATCH" ~severity:Finding.Warning
                         ~suggestion:
                           "mixing raw byte buffers with typed buffers is \
                            only portable when the byte side really is the \
                            serialized form of the typed side"
                         (Printf.sprintf "%s is raw bytes but the matching %s is typed"
                            (describe_op
                               (if sop.dt_class = Monitor.Dc_bytes then sop
                                else rop))
                            (describe_op
                               (if sop.dt_class = Monitor.Dc_bytes then rop
                                else sop))));
            pair (sl', rl')
      in
      pair (List.rev sl, List.rev rl))
    sends;
  (* --- wait-for graph over pending operations --- *)
  if deadlocked then begin
    (* rank r waits for rank p if r has a pending blocking op whose peer
       is p; ANY_SOURCE receives wait for everyone. *)
    let edges = Array.make world_size [] in
    List.iter
      (fun (o : Monitor.op) ->
        if o.rank >= 0 && o.rank < world_size then
          let peers =
            if o.peer >= 0 then [ o.peer ]
            else List.init world_size (fun i -> i)
          in
          List.iter
            (fun p ->
              if p <> o.rank && not (List.mem_assoc p edges.(o.rank)) then
                edges.(o.rank) <- (p, o) :: edges.(o.rank))
            peers)
      pending;
    (* DFS cycle detection; report the first cycle found *)
    let color = Array.make world_size 0 (* 0 white, 1 grey, 2 black *) in
    let cycle = ref None in
    let rec dfs path r =
      if !cycle = None then
        if color.(r) = 1 then begin
          (* found: slice the path from the first occurrence of r *)
          let rec cut = function
            | (r', _) :: _ as l when r' = r -> l
            | _ :: tl -> cut tl
            | [] -> []
          in
          cycle := Some (cut (List.rev path))
        end
        else if color.(r) = 0 then begin
          color.(r) <- 1;
          List.iter (fun (p, o) -> dfs ((r, o) :: path) p) edges.(r);
          color.(r) <- 2
        end
    in
    for r = 0 to world_size - 1 do
      dfs [] r
    done;
    (match !cycle with
    | Some ((_ :: _ :: _ | [ _ ]) as cyc) ->
        let desc =
          String.concat "; "
            (List.map
               (fun (r, (o : Monitor.op)) ->
                 Printf.sprintf "rank %d blocked in %s" r (describe_op o))
               cyc)
        in
        add ~id:"MATCH-DEADLOCK" ~severity:Finding.Error
          ~suggestion:
            "break the cycle: reorder one rank's send/recv, or switch one \
             side to a nonblocking operation completed after both are posted"
          (Printf.sprintf "wait-for cycle among %d rank(s): %s"
             (List.length cyc) desc)
    | _ ->
        add ~id:"MATCH-DEADLOCK" ~severity:Finding.Error
          (Printf.sprintf
             "simulation deadlocked with %d operation(s) pending but no \
              wait-for cycle among monitored point-to-point operations \
              (likely a collective or internal channel)"
             (List.length pending)))
  end
  else
    (* --- unmatched at finalize --- *)
    List.iter
      (fun (o : Monitor.op) ->
        let id, what =
          match o.kind with
          | Monitor.Send -> ("MATCH-UNMATCHED-SEND", "never received")
          | Monitor.Recv -> ("MATCH-UNMATCHED-RECV", "never satisfied")
        in
        add ~id ~severity:Finding.Warning
          ~suggestion:
            "every posted operation should be matched and completed before \
             finalize; cancel or match it"
          (Printf.sprintf "%s was %s" (describe_op o) what))
      pending;
  List.rev !acc

type result = {
  findings : Finding.t list;
  deadlocked : bool;
  counts : (string * int) list;
}

let run ~subject ~size ?(config = Config.default) f =
  let world = Mpi.create_world ~config ~size () in
  let monitor = Monitor.create () in
  Mpi.set_monitor world (Some monitor);
  let aborted = ref None in
  let deadlocked = ref false in
  (try
     Mpi.run world (fun comm ->
         try f comm
         with
         | Engine.Deadlock _ as e -> raise e
         | e -> if !aborted = None then aborted := Some e)
   with
  | Engine.Deadlock _ -> deadlocked := true
  | e -> if !aborted = None then aborted := Some e);
  let findings =
    analyze ~subject ~world_size:size ~deadlocked:!deadlocked monitor
  in
  let findings =
    match !aborted with
    | None -> findings
    | Some e ->
        Finding.make ~id:"MATCH-ABORTED" ~severity:Finding.Error ~analyzer
          ~subject
          (Printf.sprintf "a rank raised %s; analysis covers operations \
                           posted before the abort"
             (Printexc.to_string e))
        :: findings
  in
  let stats = Mpi.world_stats world in
  let counts =
    List.map
      (fun c -> (Stats.name c, Stats.get stats c))
      [ Messages_sent; Eager_messages; Rndv_messages ]
  in
  { findings; deadlocked = !deadlocked; counts }
