(* Quickstart: define a custom datatype for a dynamic type and send it
   between two ranks.

   The type here is a list of strings — something classic MPI derived
   datatypes cannot describe (multiple heap allocations of varying
   length).  With the custom serialization API we provide:

   - query: total packed size (here: the lengths header),
   - pack/unpack: serialize the lengths at any requested offset,
   - regions: the string payloads as zero-copy memory regions.

   Run with:  dune exec examples/quickstart.exe *)

module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats
module Custom = Mpicd.Custom

(* Our application type: a mutable record of rope fragments. *)
type rope = { mutable fragments : Buf.t list }

(* The custom datatype.  The state object carries the serialized
   lengths header, built once per operation (paper Listing 3). *)
let rope_dt : rope Custom.t =
  let header_of rope =
    let n = List.length rope.fragments in
    let h = Buf.create (4 * (n + 1)) in
    Buf.set_i32 h 0 (Int32.of_int n);
    List.iteri
      (fun i frag -> Buf.set_i32 h (4 * (i + 1)) (Int32.of_int (Buf.length frag)))
      rope.fragments;
    h
  in
  Custom.create
    {
      state = (fun rope ~count:_ -> header_of rope);
      state_free = ignore;
      query = (fun header _ ~count:_ -> Buf.length header);
      pack =
        (fun header _ ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (Buf.length header - offset) in
          Buf.blit ~src:header ~src_pos:offset ~dst ~dst_pos:0 ~len;
          len);
      unpack =
        (fun expected _ ~count:_ ~offset ~src ->
          (* the receiver posted buffers of known sizes; verify *)
          for i = 0 to Buf.length src - 1 do
            if Buf.get src i <> Buf.get expected (offset + i) then
              raise (Custom.Error 1)
          done);
      region_count = Some (fun _ rope ~count:_ -> List.length rope.fragments);
      regions = Some (fun _ rope ~count:_ -> Buf.Iov.of_list rope.fragments);
    }

let () =
  let world = Mpi.create_world ~size:2 () in
  Mpi.run world (fun comm ->
      if Mpi.rank comm = 0 then begin
        let rope =
          {
            fragments =
              List.map Buf.of_string
                [ "MPI "; "needs "; "custom "; "datatype "; "serialization!" ];
          }
        in
        Mpi.send comm ~dst:1 ~tag:0 (Mpi.Custom { dt = rope_dt; obj = rope; count = 1 });
        Printf.printf "[rank 0] sent a rope of %d fragments\n"
          (List.length rope.fragments)
      end
      else begin
        (* Receive side: sizes are agreed upon beforehand (the paper's
           §VI limitation; the objmsg layer shows the two-message
           workaround). *)
        let sink = { fragments = List.map Buf.create [ 4; 6; 7; 9; 14 ] } in
        let st =
          Mpi.recv comm ~source:0 ~tag:0
            (Mpi.Custom { dt = rope_dt; obj = sink; count = 1 })
        in
        let text = String.concat "" (List.map Buf.to_string sink.fragments) in
        Printf.printf "[rank 1] received %d bytes: %S\n" st.len text
      end);
  let stats = Mpi.world_stats world in
  Printf.printf "wire messages: %d, CPU-copied payload bytes: %d (zero-copy!)\n"
    (Stats.get stats Messages_sent) (Stats.get stats Bytes_copied)
