module Buf = Mpicd_buf.Buf
module Engine = Mpicd_simnet.Engine
module Pickle = Mpicd_pickle.Pickle
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats

type mode = Oob_locked | Oob_unlocked | Cdt_tagged

let mode_name = function
  | Oob_locked -> "oob+lock"
  | Oob_unlocked -> "oob-unlocked (unsafe)"
  | Cdt_tagged -> "cdt-per-object-tags"

type outcome = { elapsed_us : float; corrupted : int; messages : int }

(* Every array of an object is stamped with the sender thread's id. *)
let make_object ~tid ~arrays ~chunk =
  Pickle.List
    (List.init arrays (fun _ ->
         let a = Pickle.ndarray ~dtype:Pickle.U8 [| chunk |] in
         Buf.fill a.Pickle.data (Char.chr (1 + (tid land 0x7f)));
         Pickle.Ndarray a))

(* [`Intact of stamp] when all arrays carry one uniform stamp. *)
let inspect_object ~arrays ~chunk obj =
  match obj with
  | Pickle.List items when List.length items = arrays ->
      let stamp_of = function
        | Pickle.Ndarray a when Buf.length a.Pickle.data = chunk ->
            let s = Buf.get_u8 a.Pickle.data 0 in
            let uniform = ref true in
            for i = 1 to chunk - 1 do
              if Buf.get_u8 a.Pickle.data i <> s then uniform := false
            done;
            if !uniform then Some s else None
        | _ -> None
      in
      let stamps = List.map stamp_of items in
      if List.exists Option.is_none stamps then `Corrupted
      else begin
        match List.sort_uniq compare stamps with
        | [ Some s ] -> `Intact s
        | _ -> `Corrupted (* arrays from different senders mixed *)
      end
  | _ -> `Corrupted

(* Spawn [n] "threads" (fibers) in the current rank and wait for all. *)
let parallel_threads comm n body =
  let w = Mpi.world_of comm in
  let engine = Mpi.world_engine w in
  let done_ = Array.init n (fun _ -> Engine.Ivar.create ()) in
  for t = 0 to n - 1 do
    Engine.spawn engine
      ~name:(Printf.sprintf "rank%d-thread%d" (Mpi.rank comm) t)
      (fun () ->
        body t;
        Engine.Ivar.fill done_.(t) ())
  done;
  Array.iter (fun iv -> Engine.Ivar.read engine iv) done_

let run mode ~nthreads ~objects_per_thread ~arrays_per_object ~chunk_bytes =
  if chunk_bytes > 16 * 1024 then
    invalid_arg "Threaded.run: chunk must stay in the eager regime";
  let w = Mpi.create_world ~size:2 () in
  let engine = Mpi.world_engine w in
  let corrupted = ref 0 in
  let elapsed = ref 0. in
  let tag_of ~tid ~seq =
    match mode with
    | Oob_locked | Oob_unlocked -> 0 (* the shared-tag scenario of §VI *)
    | Cdt_tagged -> (tid * 65536) + seq
  in
  let strategy =
    match mode with
    | Oob_locked | Oob_unlocked -> Objmsg.Pickle_oob
    | Cdt_tagged -> Objmsg.Pickle_oob_cdt
  in
  let send_lock = Engine.Mutex.create () in
  let recv_lock = Engine.Mutex.create () in
  let locked lock comm f =
    match mode with
    | Oob_locked -> Engine.Mutex.with_lock (Mpi.world_engine (Mpi.world_of comm)) lock f
    | Oob_unlocked | Cdt_tagged -> f ()
  in
  (* Threads of a real runtime are preempted unevenly; fibers are not.
     Model that with deterministic per-thread compute jitter around each
     object, which desynchronises the sub-message streams. *)
  let jitter comm tid seq =
    Engine.sleep
      (Mpi.world_engine (Mpi.world_of comm))
      (float_of_int (((tid * 211) + (seq * 97)) mod 1500))
  in
  let program comm =
      if Mpi.rank comm = 0 then begin
        let t0 = Engine.now engine in
        parallel_threads comm nthreads (fun tid ->
            for seq = 0 to objects_per_thread - 1 do
              let obj =
                make_object ~tid ~arrays:arrays_per_object ~chunk:chunk_bytes
              in
              jitter comm tid seq;
              locked send_lock comm (fun () ->
                  Objmsg.send strategy comm ~dst:1 ~tag:(tag_of ~tid ~seq) obj)
            done);
        elapsed := Engine.now engine -. t0
      end
      else
        parallel_threads comm nthreads (fun tid ->
            for seq = 0 to objects_per_thread - 1 do
              jitter comm tid (seq + 3);
              match
                locked recv_lock comm (fun () ->
                    Objmsg.recv strategy comm ~source:0 ~tag:(tag_of ~tid ~seq) ())
              with
              | obj, _st -> (
                  match
                    inspect_object ~arrays:arrays_per_object ~chunk:chunk_bytes obj
                  with
                  | `Intact s ->
                      (* per-object tags pin the sender; shared-tag modes
                         only require a whole intact object *)
                      if mode = Cdt_tagged && s <> 1 + (tid land 0x7f) then
                        incr corrupted
                  | `Corrupted -> incr corrupted)
              | exception (Pickle.Corrupt _ | Mpi.Mpi_error _ | Invalid_argument _)
                ->
                  incr corrupted
            done)
  in
  (* In the unsafe mode the interleaving hazard can also wedge the
     receiver threads (message accounting drifts); a deadlock is the
     hazard manifesting, not a harness failure. *)
  (match Mpi.run w program with
  | () -> ()
  | exception Engine.Deadlock _ when mode = Oob_unlocked -> incr corrupted);
  {
    elapsed_us = !elapsed /. 1000.;
    corrupted = !corrupted;
    messages = Stats.get (Mpi.world_stats w) Messages_sent;
  }
