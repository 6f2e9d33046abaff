(* NAS LU boundary-exchange kernels (DDTBench NAS_LU_x / NAS_LU_y).

   The LU pseudo-application keeps a field g[ny][nx][5] of f64 and
   exchanges grid lines with its neighbours:

   - the x-direction line (fixed j) is one fully contiguous run of
     nx * 5 doubles — the datatype is plain contiguous and a single
     large memory region covers the whole exchange;
   - the y-direction line (fixed i) touches 5 doubles per row with a
     large stride — a strided vector, and as memory regions a long
     list of 40-byte blocks (which is why the paper sees the iovec
     path lose for NAS_LU_y). *)

module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype

let ncomp = 5
let nx = 1024
let ny = 1024
let elem = 8 (* f64 *)

let off ~j ~i ~k = ((((j * nx) + i) * ncomp) + k) * elem

let jfix = 1
let ifix = 1

(* The [ncomp] doubles of one grid point are adjacent, so the pack
   loops move one point per copy. *)
let point = ncomp * elem

module X = Kernel.Make (struct
  let name = "NAS_LU_x"
  let datatypes_desc = "contiguous"
  let loop_desc = "2 nested loops"
  let regions_sensible = true
  let slab_bytes = ny * nx * ncomp * elem

  let manual_pack base ~dst =
    let pos = ref 0 in
    for i = 0 to nx - 1 do
      Buf.blit ~src:base ~src_pos:(off ~j:jfix ~i ~k:0) ~dst ~dst_pos:!pos
        ~len:point;
      pos := !pos + point
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for i = 0 to nx - 1 do
      Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:(off ~j:jfix ~i ~k:0)
        ~len:point;
      pos := !pos + point
    done

  let derived =
    Datatype.hindexed ~blocklengths:[| 1 |]
      ~displacements_bytes:[| off ~j:jfix ~i:0 ~k:0 |]
      (Datatype.contiguous (nx * ncomp) Datatype.float64)
end)

module Y = Kernel.Make (struct
  let name = "NAS_LU_y"
  let datatypes_desc = "strided vector"
  let loop_desc = "2 nested loops (non-contiguous)"
  let regions_sensible = true
  let slab_bytes = ny * nx * ncomp * elem

  let manual_pack base ~dst =
    let pos = ref 0 in
    for j = 0 to ny - 1 do
      Buf.blit ~src:base ~src_pos:(off ~j ~i:ifix ~k:0) ~dst ~dst_pos:!pos
        ~len:point;
      pos := !pos + point
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for j = 0 to ny - 1 do
      Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:(off ~j ~i:ifix ~k:0)
        ~len:point;
      pos := !pos + point
    done

  let derived =
    Datatype.hindexed ~blocklengths:[| 1 |]
      ~displacements_bytes:[| off ~j:0 ~i:ifix ~k:0 |]
      (Datatype.hvector ~count:ny ~blocklength:ncomp
         ~stride_bytes:(nx * ncomp * elem) Datatype.float64)
end)
