(* Tests for the collectives extension (paper §VIII future work). *)

module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module Custom = Mpicd.Custom
module Coll = Mpicd_collectives.Collectives
module Engine = Mpicd_simnet.Engine
module B = Mpicd_bench_types.Bench_types

let check_int = Alcotest.(check int)

let sizes = [ 1; 2; 3; 4; 5; 8 ]

let test_barrier_sync () =
  List.iter
    (fun n ->
      let w = Mpi.create_world ~size:n () in
      let arrived = ref 0 in
      let min_seen = ref max_int in
      Mpi.run w (fun comm ->
          incr arrived;
          Coll.barrier comm;
          min_seen := min !min_seen !arrived;
          Coll.barrier comm);
      check_int (Printf.sprintf "all %d arrived before release" n) n !min_seen)
    sizes

let test_bcast_bytes () =
  List.iter
    (fun n ->
      List.iter
        (fun root ->
          if root < n then begin
            let w = Mpi.create_world ~size:n () in
            let payload = "broadcast-payload" in
            let deliveries = ref 0 in
            Mpi.run w (fun comm ->
                let buf =
                  if Mpi.rank comm = root then Buf.of_string payload
                  else Buf.create (String.length payload)
                in
                Coll.bcast comm ~root (Mpi.Bytes buf);
                Alcotest.(check string)
                  (Printf.sprintf "n=%d root=%d rank=%d" n root (Mpi.rank comm))
                  payload (Buf.to_string buf);
                incr deliveries);
            check_int "every rank checked" n !deliveries
          end)
        [ 0; 1; 3 ])
    sizes

let test_bcast_custom_datatype () =
  (* Broadcasting a custom-datatype buffer: intermediate binomial-tree
     nodes receive into their structure and forward from it. *)
  let n = 8 in
  let w = Mpi.create_world ~size:n () in
  let total = 64 * 1024 in
  let reference = B.Double_vec.generate ~subvec_bytes:4096 ~total_bytes:total in
  Mpi.run w (fun comm ->
      let mine =
        if Mpi.rank comm = 0 then reference
        else B.Double_vec.make_sink ~subvec_bytes:4096 ~total_bytes:total
      in
      Coll.bcast comm ~root:0
        (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = mine; count = 1 });
      Alcotest.(check bool)
        (Printf.sprintf "rank %d payload" (Mpi.rank comm))
        true
        (B.Double_vec.equal reference mine))

let test_gather () =
  List.iter
    (fun n ->
      let root = min 1 (n - 1) in
      let w = Mpi.create_world ~size:n () in
      let received = Array.make n "" in
      Mpi.run w (fun comm ->
          let me = Mpi.rank comm in
          let mine = Buf.of_string (Printf.sprintf "r%02d" me) in
          let sinks = Array.init n (fun _ -> Buf.create 3) in
          Coll.gather comm ~root ~send:(Mpi.Bytes mine)
            ~recv:(fun i -> Mpi.Bytes sinks.(i));
          if me = root then begin
            received.(root) <- Printf.sprintf "r%02d" root;
            for i = 0 to n - 1 do
              if i <> root then received.(i) <- Buf.to_string sinks.(i)
            done
          end);
      Array.iteri
        (fun i got ->
          Alcotest.(check string)
            (Printf.sprintf "n=%d contribution %d" n i)
            (Printf.sprintf "r%02d" i) got)
        received)
    sizes

let test_scatter () =
  let n = 6 in
  let root = 2 in
  let w = Mpi.create_world ~size:n () in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let parts = Array.init n (fun i -> Buf.of_string (Printf.sprintf "p%02d" i)) in
      let mine = Buf.create 3 in
      Coll.scatter comm ~root
        ~send:(fun i -> Mpi.Bytes parts.(i))
        ~recv:(Mpi.Bytes mine);
      let expect = Printf.sprintf "p%02d" me in
      let got = if me = root then Buf.to_string parts.(root) else Buf.to_string mine in
      Alcotest.(check string) (Printf.sprintf "rank %d" me) expect got)

let test_allgather () =
  List.iter
    (fun n ->
      let w = Mpi.create_world ~size:n () in
      Mpi.run w (fun comm ->
          let me = Mpi.rank comm in
          let mine = Buf.of_string (Printf.sprintf "a%02d" me) in
          let sinks = Array.init n (fun _ -> Buf.create 3) in
          Coll.allgather comm ~send:(Mpi.Bytes mine)
            ~recv:(fun i -> Mpi.Bytes sinks.(i));
          for i = 0 to n - 1 do
            if i <> me then
              Alcotest.(check string)
                (Printf.sprintf "n=%d rank=%d sees %d" n me i)
                (Printf.sprintf "a%02d" i)
                (Buf.to_string sinks.(i))
          done))
    sizes

let test_reduce_sum () =
  List.iter
    (fun n ->
      let w = Mpi.create_world ~size:n () in
      let result = ref [||] in
      Mpi.run w (fun comm ->
          let me = Mpi.rank comm in
          let data = Array.init 16 (fun i -> float_of_int ((me + 1) * (i + 1))) in
          Coll.reduce_f64 comm ~root:0 ~op:`Sum data;
          if me = 0 then result := data);
      let tri = n * (n + 1) / 2 in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "n=%d elt %d" n i)
            (float_of_int (tri * (i + 1)))
            v)
        !result)
    sizes

let test_reduce_max_min () =
  let n = 5 in
  let w = Mpi.create_world ~size:n () in
  let got_max = ref 0. and got_min = ref 0. in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let a = [| float_of_int me |] in
      Coll.reduce_f64 comm ~root:0 ~op:`Max a;
      if me = 0 then got_max := a.(0);
      let b = [| float_of_int me |] in
      Coll.reduce_f64 comm ~root:0 ~op:`Min b;
      if me = 0 then got_min := b.(0));
  Alcotest.(check (float 0.)) "max" 4. !got_max;
  Alcotest.(check (float 0.)) "min" 0. !got_min

let test_allreduce () =
  let n = 7 in
  let w = Mpi.create_world ~size:n () in
  let checks = ref 0 in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let data = [| float_of_int me; 1.0 |] in
      Coll.allreduce_f64 comm ~op:`Sum data;
      Alcotest.(check (float 1e-9)) "sum of ranks" 21. data.(0);
      Alcotest.(check (float 1e-9)) "count" (float_of_int n) data.(1);
      incr checks);
  check_int "all ranks verified" n !checks

let test_alltoall () =
  List.iter
    (fun n ->
      let w = Mpi.create_world ~size:n () in
      Mpi.run w (fun comm ->
          let me = Mpi.rank comm in
          let outs =
            Array.init n (fun j -> Buf.of_string (Printf.sprintf "%02d>%02d" me j))
          in
          let ins = Array.init n (fun _ -> Buf.create 5) in
          Coll.alltoall comm
            ~send:(fun j -> Mpi.Bytes outs.(j))
            ~recv:(fun i -> Mpi.Bytes ins.(i));
          for i = 0 to n - 1 do
            if i <> me then
              Alcotest.(check string)
                (Printf.sprintf "n=%d %d->%d" n i me)
                (Printf.sprintf "%02d>%02d" i me)
                (Buf.to_string ins.(i))
          done))
    [ 2; 3; 4; 7 ]

let test_gather_custom_buffers () =
  (* gather where every contribution is a custom datatype buffer *)
  let n = 4 in
  let w = Mpi.create_world ~size:n () in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let mine =
        B.Double_vec.generate ~subvec_bytes:256 ~total_bytes:(1024 * (me + 1))
      in
      let sinks =
        Array.init n (fun i ->
            B.Double_vec.make_sink ~subvec_bytes:256 ~total_bytes:(1024 * (i + 1)))
      in
      Coll.gather comm ~root:0
        ~send:(Mpi.Custom { dt = B.Double_vec.custom_dt; obj = mine; count = 1 })
        ~recv:(fun i ->
          Mpi.Custom { dt = B.Double_vec.custom_dt; obj = sinks.(i); count = 1 });
      if me = 0 then
        for i = 1 to n - 1 do
          let expect =
            B.Double_vec.generate ~subvec_bytes:256 ~total_bytes:(1024 * (i + 1))
          in
          Alcotest.(check bool)
            (Printf.sprintf "contribution %d" i)
            true
            (B.Double_vec.equal expect sinks.(i))
        done)

let test_back_to_back_collectives () =
  (* Sequence-number separation: consecutive collectives on the same
     communicator must not cross-match. *)
  let n = 4 in
  let w = Mpi.create_world ~size:n () in
  Mpi.run w (fun comm ->
      for round = 0 to 9 do
        let b =
          if Mpi.rank comm = 0 then Buf.of_string (Printf.sprintf "%04d" round)
          else Buf.create 4
        in
        Coll.bcast comm ~root:0 (Mpi.Bytes b);
        Alcotest.(check string) "round payload" (Printf.sprintf "%04d" round)
          (Buf.to_string b);
        Coll.barrier comm
      done)

let test_bad_root () =
  let w = Mpi.create_world ~size:2 () in
  Mpi.run w (fun comm ->
      match Coll.bcast comm ~root:7 (Mpi.Bytes (Buf.create 1)) with
      | () -> Alcotest.fail "bad root accepted"
      | exception Invalid_argument _ -> ())

let test_barrier_faster_than_linear () =
  (* dissemination barrier should beat the linear one on wide worlds *)
  let time_of f =
    let w = Mpi.create_world ~size:32 () in
    let t = ref 0. in
    Mpi.run w (fun comm ->
        f comm;
        if Mpi.rank comm = 0 then t := Mpicd_simnet.Engine.now (Mpi.world_engine w));
    !t
  in
  let linear = time_of Mpi.barrier in
  let dissem = time_of Coll.barrier in
  Alcotest.(check bool)
    (Printf.sprintf "dissemination (%.0fns) < linear (%.0fns)" dissem linear)
    true (dissem < linear)

let prop_bcast_random =
  QCheck.Test.make ~name:"collectives: bcast delivers for random sizes/roots"
    ~count:25
    QCheck.(triple (int_range 1 9) (int_range 0 8) (int_range 0 200_000))
    (fun (n, root, bytes) ->
      let root = root mod n in
      let w = Mpi.create_world ~size:n () in
      let payload = Buf.create bytes in
      Mpicd_ddtbench.Kernel.fill payload;
      let ok = ref true in
      Mpi.run w (fun comm ->
          let mine =
            if Mpi.rank comm = root then Buf.copy payload else Buf.create bytes
          in
          Coll.bcast comm ~root (Mpi.Bytes mine);
          if not (Buf.equal mine payload) then ok := false);
      !ok)

let prop_allreduce_random =
  QCheck.Test.make ~name:"collectives: allreduce sum matches sequential"
    ~count:20
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(1 -- 8) (float_bound_inclusive 100.)))
    (fun (n, base) ->
      let base = Array.of_list base in
      let w = Mpi.create_world ~size:n () in
      let expect =
        Array.map (fun v -> v *. float_of_int (n * (n + 1) / 2)) base
      in
      let ok = ref true in
      Mpi.run w (fun comm ->
          let mine =
            Array.map (fun v -> v *. float_of_int (Mpi.rank comm + 1)) base
          in
          Coll.allreduce_f64 comm ~op:`Sum mine;
          Array.iteri
            (fun i v -> if Float.abs (v -. expect.(i)) > 1e-6 then ok := false)
            mine);
      !ok)

(* Deterministic allocation ceilings on the healthy message path.
   For a fixed binary and input, the minor-heap words a 1024-rank
   allreduce allocates per simulated event are a count, not a timing,
   so the guard cannot flake.  So are the words its minor collections
   promote per message, once the window starts with a full major
   collection and ends with a minor one.  A major cycle's phase changes
   force extra minor collections; without the full major their points
   depend on what earlier suites left in the heap, which moved this
   count between 18.6 and 20.1 from run to run.  The round's event
   count is pinned too: a host-side change must not change what is
   simulated. *)
let events_per_round = 10_230
let max_words_per_event = 31.
let max_promoted_words_per_message = 20.

let test_allreduce_alloc_ceiling () =
  let ranks = 1024 and warmup = 2 and rounds = 5 in
  let w = Mpi.create_world ~size:ranks () in
  let stats = Mpi.world_stats w in
  let ev = Array.make 2 0 and words = Array.make 2 0. and promoted = Array.make 2 0. in
  let mark i =
    ev.(i) <- stats.Mpicd_simnet.Stats.events_scheduled_total;
    words.(i) <- Gc.minor_words ();
    if i = 0 then Gc.full_major () else Gc.minor ();
    promoted.(i) <- (Gc.quick_stat ()).Gc.promoted_words
  in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      (* 9 doubles: the 72-byte eager message of the allreduce-1k
         benchmark workload *)
      let data = Array.make 9 0. in
      for k = 1 to warmup + rounds do
        Array.fill data 0 9 (float_of_int (me mod 7));
        Coll.allreduce_f64 comm ~op:`Sum data;
        if me = 0 && k = warmup then mark 0;
        if me = 0 && k = warmup + rounds then mark 1
      done);
  let events = ev.(1) - ev.(0) in
  check_int "events per round" (rounds * events_per_round) events;
  let per_event = (words.(1) -. words.(0)) /. float_of_int events in
  if per_event > max_words_per_event then
    Alcotest.failf "%.1f minor words per event, ceiling %.0f" per_event
      max_words_per_event;
  (* a round is a reduce and a broadcast: 2 (ranks - 1) messages *)
  let per_message =
    (promoted.(1) -. promoted.(0)) /. float_of_int (rounds * 2 * (ranks - 1))
  in
  if per_message > max_promoted_words_per_message then
    Alcotest.failf "%.1f promoted words per message, ceiling %.0f" per_message
      max_promoted_words_per_message

(* The unexpected queue is linked in place: a root that takes n - 1
   early arrivals pays O(n), not the O(n^2) of copying the queue per
   arrival.  The minor words per rank of an 8-byte gather, from the
   root leaving a barrier to the root holding every message, may grow
   by at most 20% from 512 to 2048 ranks. *)
let gather_words_per_rank ranks =
  let w = Mpi.create_world ~size:ranks () in
  let words = Array.make 2 0. in
  let recvs = Array.init ranks (fun _ -> Mpi.Bytes (Buf.create 8)) in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      Coll.barrier comm;
      if me = 0 then words.(0) <- Gc.minor_words ();
      Coll.gather comm ~root:0 ~send:recvs.(me) ~recv:(fun i -> recvs.(i));
      if me = 0 then words.(1) <- Gc.minor_words ());
  (words.(1) -. words.(0)) /. float_of_int ranks

let test_gather_linear_in_ranks () =
  let small = gather_words_per_rank 512 and large = gather_words_per_rank 2048 in
  if large > 1.2 *. small then
    Alcotest.failf "gather: %.0f minor words per rank at 2048 ranks, %.0f at 512"
      large small

(* A deterministic survival ceiling: what a waiting rank keeps
   reachable, which the minor GC must promote and the major GC mark.
   Halfway through a round of [allreduce_f64] (rank 0 has finished its
   reduce and the other 1023 ranks wait in the broadcast), an engine
   event runs a full major collection; the live heap words the world
   added, per rank, count every pending receive's requests, transport
   state, staging buffer and parked fiber. *)
let max_live_words_per_rank = 100.

let test_waiting_rank_live_ceiling () =
  let ranks = 1024 and rounds = 3 in
  Gc.full_major ();
  let base = (Gc.stat ()).Gc.live_words in
  let w = Mpi.create_world ~size:ranks () in
  let e = Mpi.world_engine w in
  let live = ref 0 and start = ref 0. and round_ns = ref 0. in
  Mpi.run w (fun comm ->
      let me = Mpi.rank comm in
      let data = Array.make 9 (float_of_int (me mod 7)) in
      for k = 1 to rounds do
        if me = 0 then begin
          start := Engine.now e;
          (* read halfway through, going by the previous round *)
          if k = rounds then
            Engine.at e ~delay:(0.5 *. !round_ns) (fun () ->
                Gc.full_major ();
                live := (Gc.stat ()).Gc.live_words)
        end;
        Coll.allreduce_f64 comm ~op:`Sum data;
        if me = 0 then round_ns := Engine.now e -. !start
      done);
  check_int "reading taken" 1 (Bool.to_int (!live > 0));
  let per_rank = float_of_int (!live - base) /. float_of_int ranks in
  if per_rank > max_live_words_per_rank then
    Alcotest.failf "%.1f live words per waiting rank, ceiling %.0f" per_rank
      max_live_words_per_rank

let suite =
  let tc = Alcotest.test_case in
  ( "collectives",
    [
      tc "barrier synchronizes" `Quick test_barrier_sync;
      tc "bcast bytes (all sizes/roots)" `Quick test_bcast_bytes;
      tc "bcast custom datatype through tree" `Quick test_bcast_custom_datatype;
      tc "gather" `Quick test_gather;
      tc "scatter" `Quick test_scatter;
      tc "allgather" `Quick test_allgather;
      tc "reduce sum" `Quick test_reduce_sum;
      tc "reduce max/min" `Quick test_reduce_max_min;
      tc "allreduce" `Quick test_allreduce;
      tc "alltoall" `Quick test_alltoall;
      tc "gather of custom buffers" `Quick test_gather_custom_buffers;
      tc "back-to-back collectives" `Quick test_back_to_back_collectives;
      tc "bad root" `Quick test_bad_root;
      tc "dissemination beats linear barrier" `Quick test_barrier_faster_than_linear;
      tc "1024-rank allreduce: words per event ceiling" `Quick
        test_allreduce_alloc_ceiling;
      tc "1024-rank allreduce: live words per waiting rank" `Quick
        test_waiting_rank_live_ceiling;
      tc "gather: minor words per rank linear in ranks" `Quick
        test_gather_linear_in_ranks;
      QCheck_alcotest.to_alcotest prop_bcast_random;
      QCheck_alcotest.to_alcotest prop_allreduce_random;
    ] )
