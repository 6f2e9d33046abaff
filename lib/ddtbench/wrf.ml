(* WRF halo-exchange kernels (DDTBench WRF_x_vec / WRF_y_vec and the
   subarray variants WRF_x_sa / WRF_y_sa).

   The weather model exchanges halos of several 3-D float32 fields at
   once; the MPI representation is a struct of strided vectors (the
   _vec variants) or of subarrays (_sa).  The x-direction halo touches
   [halo] floats per (field, k, j) — thousands of 16-byte pieces across
   deep loop nests, which is why the paper deems memory regions
   impracticable for WRF. *)

module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype

let nfields = 4
let ni = 64
let nj = 64
let nk = 32
let halo = 4
let elem = 4 (* f32 *)

let field_bytes = nk * nj * ni * elem
let off ~f ~k ~j ~i = ((((((f * nk) + k) * nj) + j) * ni) + i) * elem

let i0 = 1
let j0 = 1

(* The halo loops copy one row at a time: [halo] floats of the
   x-direction halo, or all [ni] floats of a y-direction halo row. *)
let x_row = halo * elem
let y_row = ni * elem

let x_manual_pack base ~dst =
  let pos = ref 0 in
  for f = 0 to nfields - 1 do
    for k = 0 to nk - 1 do
      for j = 0 to nj - 1 do
        Buf.blit ~src:base ~src_pos:(off ~f ~k ~j ~i:i0) ~dst ~dst_pos:!pos
          ~len:x_row;
        pos := !pos + x_row
      done
    done
  done

let x_manual_unpack ~src base =
  let pos = ref 0 in
  for f = 0 to nfields - 1 do
    for k = 0 to nk - 1 do
      for j = 0 to nj - 1 do
        Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:(off ~f ~k ~j ~i:i0)
          ~len:x_row;
        pos := !pos + x_row
      done
    done
  done

let y_manual_pack base ~dst =
  let pos = ref 0 in
  for f = 0 to nfields - 1 do
    for k = 0 to nk - 1 do
      for j = j0 to j0 + halo - 1 do
        Buf.blit ~src:base ~src_pos:(off ~f ~k ~j ~i:0) ~dst ~dst_pos:!pos
          ~len:y_row;
        pos := !pos + y_row
      done
    done
  done

let y_manual_unpack ~src base =
  let pos = ref 0 in
  for f = 0 to nfields - 1 do
    for k = 0 to nk - 1 do
      for j = j0 to j0 + halo - 1 do
        Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:(off ~f ~k ~j ~i:0)
          ~len:y_row;
        pos := !pos + y_row
      done
    done
  done

(* struct over the per-field face types *)
let struct_of_fields face_type =
  Datatype.hindexed
    ~blocklengths:(Array.make nfields 1)
    ~displacements_bytes:(Array.init nfields (fun f -> f * field_bytes))
    face_type

let x_vec_derived =
  (* per field: nk planes of nj rows of [halo] floats at offset i0 *)
  let rows =
    Datatype.hvector ~count:nj ~blocklength:halo ~stride_bytes:(ni * elem)
      Datatype.float32
  in
  let planes =
    Datatype.hvector ~count:nk ~blocklength:1 ~stride_bytes:(nj * ni * elem) rows
  in
  struct_of_fields
    (Datatype.hindexed ~blocklengths:[| 1 |]
       ~displacements_bytes:[| i0 * elem |] planes)

let y_vec_derived =
  let rows =
    Datatype.hvector ~count:nk ~blocklength:(halo * ni)
      ~stride_bytes:(nj * ni * elem) Datatype.float32
  in
  struct_of_fields
    (Datatype.hindexed ~blocklengths:[| 1 |]
       ~displacements_bytes:[| j0 * ni * elem |] rows)

let x_sa_derived =
  struct_of_fields
    (Datatype.subarray
       ~sizes:[| nk; nj; ni |]
       ~subsizes:[| nk; nj; halo |]
       ~starts:[| 0; 0; i0 |] ~order:`C Datatype.float32)

let y_sa_derived =
  struct_of_fields
    (Datatype.subarray
       ~sizes:[| nk; nj; ni |]
       ~subsizes:[| nk; halo; ni |]
       ~starts:[| 0; j0; 0 |] ~order:`C Datatype.float32)

module X_vec = Kernel.Make (struct
  let name = "WRF_x_vec"
  let datatypes_desc = "struct of strided vectors"
  let loop_desc = "4 nested loops (non-contiguous)"
  let regions_sensible = false
  let slab_bytes = nfields * field_bytes
  let manual_pack = x_manual_pack
  let manual_unpack = x_manual_unpack
  let derived = x_vec_derived
end)

module Y_vec = Kernel.Make (struct
  let name = "WRF_y_vec"
  let datatypes_desc = "struct of strided vectors"
  let loop_desc = "3 nested loops (non-contiguous)"
  let regions_sensible = false
  let slab_bytes = nfields * field_bytes
  let manual_pack = y_manual_pack
  let manual_unpack = y_manual_unpack
  let derived = y_vec_derived
end)

module X_sa = Kernel.Make (struct
  let name = "WRF_x_sa"
  let datatypes_desc = "struct of subarrays"
  let loop_desc = "4 nested loops (non-contiguous)"
  let regions_sensible = false
  let slab_bytes = nfields * field_bytes
  let manual_pack = x_manual_pack
  let manual_unpack = x_manual_unpack
  let derived = x_sa_derived
end)

module Y_sa = Kernel.Make (struct
  let name = "WRF_y_sa"
  let datatypes_desc = "struct of subarrays"
  let loop_desc = "3 nested loops (non-contiguous)"
  let regions_sensible = false
  let slab_bytes = nfields * field_bytes
  let manual_pack = y_manual_pack
  let manual_unpack = y_manual_unpack
  let derived = y_sa_derived
end)
