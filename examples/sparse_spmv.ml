(* Distributed sparse matrix-vector product (SpMV) with typed,
   schema-derived halo exchange.

   Each rank owns a block of rows of a sparse matrix in CSR form and
   the matching slice of the vector.  Before each multiply it must
   fetch the remote vector entries its columns reference.  The request
   list (irregular, run-length varying) travels as a serde-schema
   custom datatype; the reply uses the type-validated layer so a
   mismatched datatype is caught instead of silently mis-interpreted.

   Run with:  dune exec examples/sparse_spmv.exe *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Mpi = Mpicd.Mpi
module Stats = Mpicd_simnet.Stats
module S = Mpicd_serde.Serde
module T = Mpicd_typed_mpi.Typed_mpi
module Coll = Mpicd_collectives.Collectives

let nranks = 4
let rows_per_rank = 256
let n = nranks * rows_per_rank

(* Deterministic sparse structure: each row i has entries on the
   diagonal band and a few far couplings into other ranks' slices. *)
let cols_of_row i =
  let local = [ i; (i + 1) mod n; (i + n - 1) mod n ] in
  let far = [ (i * 7 + 13) mod n; (i * 31 + 5) mod n ] in
  List.sort_uniq compare (local @ far)

(* The halo request: which vector indices this rank needs from [peer]. *)
type request = { r_step : int; r_indices : int array }

let request_schema =
  S.map
    (fun r -> (r.r_step, Array.to_list r.r_indices))
    (fun (r_step, idx) -> { r_step; r_indices = Array.of_list idx })
    S.(pair int (list int))

let () =
  let world = Mpi.create_world ~size:nranks () in
  let residual = ref 0. in
  Mpi.run world (fun comm ->
      let me = Mpi.rank comm in
      let row0 = me * rows_per_rank in
      let owner col = col / rows_per_rank in
      (* local slice of x, initialised to x_i = i *)
      let x = Array.init rows_per_rank (fun i -> float_of_int (row0 + i)) in
      (* indices we need from each peer *)
      let needed = Array.make nranks [] in
      for i = row0 to row0 + rows_per_rank - 1 do
        List.iter
          (fun c -> if owner c <> me then needed.(owner c) <- c :: needed.(owner c))
          (cols_of_row i)
      done;
      let needed = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) needed in
      (* 1. ship request lists (schema-derived custom datatype needs no
         manual packing code for this irregular type); nonblocking, as
         the custom path completes only when the peer posts its recv *)
      let reqs = ref [] in
      for peer = 0 to nranks - 1 do
        if peer <> me then
          reqs :=
            Mpi.isend comm ~dst:peer ~tag:1
              (Mpi.Custom
                 {
                   dt = S.to_custom request_schema;
                   obj = { r_step = 0; r_indices = needed.(peer) };
                   count = 1;
                 })
            :: !reqs
      done;
      (* 2. serve incoming requests: gather the values with a derived
         indexed datatype over our x slice, send type-validated *)
      let xbuf = Buf.create (rows_per_rank * 8) in
      Array.iteri (fun i v -> Buf.set_f64 xbuf (8 * i) v) x;
      for _ = 1 to nranks - 1 do
        (* requests are small; receive into a bounded shape *)
        let sink = ref { r_step = -1; r_indices = Array.make 0 0 } in
        (* learn the size via probe-based object receive: requests use a
           fixed maximal shape here for simplicity *)
        let st = Mpi.probe comm ~tag:1 () in
        let peer = st.source in
        (* reconstruct: peers' request arrays vary, so receive via the
           dynamic serde path: post a matching shape *)
        let expect = Array.length needed.(peer) in
        ignore expect;
        (* the requester's own 'needed' toward us is symmetric in this
           structure; compute it directly *)
        let theirs = ref [] in
        let prow0 = peer * rows_per_rank in
        for i = prow0 to prow0 + rows_per_rank - 1 do
          List.iter
            (fun c -> if owner c = me then theirs := c :: !theirs)
            (cols_of_row i)
        done;
        let theirs = Array.of_list (List.sort_uniq compare !theirs) in
        sink := { r_step = 0; r_indices = Array.make (Array.length theirs) 0 };
        let cell = sink in
        ignore
          (Mpi.recv comm ~source:peer ~tag:1
             (Mpi.Custom
                { dt = S.receive_into request_schema cell; obj = cell; count = 1 }));
        let req = !cell in
        assert (req.r_indices = theirs);
        (* gather requested entries with an indexed datatype *)
        let displacements = Array.map (fun c -> c - (me * rows_per_rank)) req.r_indices in
        let dt = Dt.indexed_block ~blocklength:1 ~displacements Dt.float64 in
        T.send comm ~dst:peer ~tag:2 dt ~count:1 xbuf
      done;
      ignore (Mpi.waitall !reqs);
      (* 3. receive halo values (type-validated, dynamic) *)
      let halo = Hashtbl.create 64 in
      for _ = 1 to nranks - 1 do
        let _dt, _count, data, st = T.recv_any comm ~tag:2 () in
        let peer = st.source in
        (* values land at the displacements we asked for *)
        Array.iteri
          (fun k c ->
            let local = c - (peer * rows_per_rank) in
            Hashtbl.replace halo c (Buf.get_f64 data (8 * local));
            ignore k)
          needed.(peer)
      done;
      (* 4. the multiply: y = A x with A_ij = 1/(1+|i-j|) *)
      let value_of c =
        if owner c = me then x.(c - row0) else Hashtbl.find halo c
      in
      let y =
        Array.init rows_per_rank (fun i ->
            let row = row0 + i in
            List.fold_left
              (fun acc c ->
                acc +. (value_of c /. float_of_int (1 + abs (row - c))))
              0. (cols_of_row row))
      in
      (* 5. a global check: sum of |y| via allreduce *)
      let total = [| Array.fold_left (fun a v -> a +. Float.abs v) 0. y |] in
      Coll.allreduce_f64 comm ~op:`Sum total;
      if me = 0 then residual := total.(0));
  Printf.printf "SpMV on %d ranks (%d rows, irregular halo): |y|_1 = %.3f\n"
    nranks n !residual;
  let stats = Mpi.world_stats world in
  Printf.printf
    "halo exchange used %d messages; typed replies were datatype-validated\n"
    (Stats.get stats Messages_sent)
