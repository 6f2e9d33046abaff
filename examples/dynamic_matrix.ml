(* Dynamic (ragged) matrix exchange and broadcast.

   A ragged matrix — rows of varying length allocated independently on
   the heap — is the std::list<std::vector<int>> example from the
   paper's §II-B: classic derived datatypes cannot describe it without
   per-message address manipulation, but a custom datatype carries the
   row lengths in its packed part and the row payloads as zero-copy
   regions.  The same datatype value then works unchanged inside a
   binomial-tree broadcast (the paper's future-work collectives).

   Run with:  dune exec examples/dynamic_matrix.exe *)

module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats
module Custom = Mpicd.Custom
module Coll = Mpicd_collectives.Collectives

type ragged = { rows : Buf.t array }

let ragged_dt : ragged Custom.t =
  let header_of m =
    let h = Buf.create (4 * Array.length m.rows) in
    Array.iteri
      (fun i row -> Buf.set_i32 h (4 * i) (Int32.of_int (Buf.length row)))
      m.rows;
    h
  in
  Custom.create
    {
      state = (fun m ~count:_ -> header_of m);
      state_free = ignore;
      query = (fun h _ ~count:_ -> Buf.length h);
      pack =
        (fun h _ ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (Buf.length h - offset) in
          Buf.blit ~src:h ~src_pos:offset ~dst ~dst_pos:0 ~len;
          len);
      unpack =
        (fun h _ ~count:_ ~offset ~src ->
          for i = 0 to Buf.length src - 1 do
            if Buf.get src i <> Buf.get h (offset + i) then
              raise (Custom.Error 2)
          done);
      region_count = Some (fun _ m ~count:_ -> Array.length m.rows);
      regions = Some (fun _ m ~count:_ -> Buf.Iov.of_array m.rows);
    }

(* Row i has 16 * (1 + i mod 7) i32 entries — genuinely ragged. *)
let row_len i = 64 * (1 + (i mod 7))

let make_matrix ~nrows ~fill =
  {
    rows =
      Array.init nrows (fun i ->
          let b = Buf.create (row_len i) in
          if fill then
            for j = 0 to (Buf.length b / 4) - 1 do
              Buf.set_i32 b (4 * j) (Int32.of_int ((i * 1000) + j))
            done;
          b);
  }

let checksum m =
  Array.fold_left
    (fun acc row ->
      let s = ref acc in
      for j = 0 to (Buf.length row / 4) - 1 do
        s := !s + Int32.to_int (Buf.get_i32 row (4 * j))
      done;
      !s)
    0 m.rows

let () =
  let nranks = 8 and nrows = 100 in
  let world = Mpi.create_world ~size:nranks () in
  let reference = make_matrix ~nrows ~fill:true in
  Mpi.run world (fun comm ->
      let mine =
        if Mpi.rank comm = 0 then reference else make_matrix ~nrows ~fill:false
      in
      (* broadcast the ragged matrix to all ranks in log2(n) rounds *)
      Coll.bcast comm ~root:0 (Mpi.Custom { dt = ragged_dt; obj = mine; count = 1 });
      if checksum mine <> checksum reference then
        failwith "broadcast corrupted the matrix";
      (* then a sanity allreduce over a derived statistic *)
      let stat = [| float_of_int (checksum mine) |] in
      Coll.allreduce_f64 comm ~op:`Sum stat;
      if Mpi.rank comm = 0 then
        Printf.printf
          "[rank 0] ragged matrix (%d rows, %d bytes) broadcast to %d ranks;\n\
           checksum verified everywhere (allreduce total %.0f)\n"
          nrows
          (Array.fold_left (fun a r -> a + Buf.length r) 0 mine.rows)
          nranks stat.(0));
  let stats = Mpi.world_stats world in
  Printf.printf "messages: %d, payload CPU copies: %d bytes\n"
    (Stats.get stats Messages_sent) (Stats.get stats Bytes_copied)
