(* NAS MG face-exchange kernels (DDTBench NAS_MG_x / NAS_MG_y / NAS_MG_z).

   The multigrid solver exchanges the faces of a 3-D f64 grid
   u[nz][ny][nx]:

   - the x-face (fixed i) touches a single double per (k, j) pair —
     nz*ny tiny 8-byte blocks: packing wins, iovec lists are hopeless
     (paper: regions yield lower bandwidth for NAS_MG_x);
   - the y-face (fixed j) is nz contiguous rows of nx doubles — few,
     large blocks: memory regions win (paper: higher bandwidth for
     NAS_MG_y);
   - the z-face (fixed k) is one fully contiguous slab (kept as an
     extra kernel; trivially fast for every method). *)

module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype

let nx = 128
let ny = 128
let nz = 128
let elem = 8

let off ~k ~j ~i = ((((k * ny) + j) * nx) + i) * elem

let ifix = 1
let jfix = 1
let kfix = 1

(* The pack loops move one double of the x-face, or one row of [nx]
   doubles of the y- and z-faces, per copy. *)
let row = nx * elem

module X = Kernel.Make (struct
  let name = "NAS_MG_x"
  let datatypes_desc = "strided vector"
  let loop_desc = "2 nested loops (non-contiguous)"
  let regions_sensible = true
  let slab_bytes = nz * ny * nx * elem

  let manual_pack base ~dst =
    let pos = ref 0 in
    for k = 0 to nz - 1 do
      for j = 0 to ny - 1 do
        Buf.blit ~src:base ~src_pos:(off ~k ~j ~i:ifix) ~dst ~dst_pos:!pos
          ~len:elem;
        pos := !pos + elem
      done
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for k = 0 to nz - 1 do
      for j = 0 to ny - 1 do
        Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:(off ~k ~j ~i:ifix)
          ~len:elem;
        pos := !pos + elem
      done
    done

  let derived =
    Datatype.hindexed ~blocklengths:[| 1 |]
      ~displacements_bytes:[| ifix * elem |]
      (Datatype.hvector ~count:(nz * ny) ~blocklength:1 ~stride_bytes:(nx * elem)
         Datatype.float64)
end)

module Y = Kernel.Make (struct
  let name = "NAS_MG_y"
  let datatypes_desc = "strided vector"
  let loop_desc = "2 nested loops (non-contiguous)"
  let regions_sensible = true
  let slab_bytes = nz * ny * nx * elem

  let manual_pack base ~dst =
    let pos = ref 0 in
    for k = 0 to nz - 1 do
      Buf.blit ~src:base ~src_pos:(off ~k ~j:jfix ~i:0) ~dst ~dst_pos:!pos
        ~len:row;
      pos := !pos + row
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for k = 0 to nz - 1 do
      Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:(off ~k ~j:jfix ~i:0)
        ~len:row;
      pos := !pos + row
    done

  let derived =
    Datatype.hindexed ~blocklengths:[| 1 |]
      ~displacements_bytes:[| jfix * nx * elem |]
      (Datatype.hvector ~count:nz ~blocklength:nx
         ~stride_bytes:(ny * nx * elem) Datatype.float64)
end)

module Z = Kernel.Make (struct
  let name = "NAS_MG_z"
  let datatypes_desc = "contiguous"
  let loop_desc = "2 nested loops"
  let regions_sensible = true
  let slab_bytes = nz * ny * nx * elem

  let manual_pack base ~dst =
    let pos = ref 0 in
    for j = 0 to ny - 1 do
      Buf.blit ~src:base ~src_pos:(off ~k:kfix ~j ~i:0) ~dst ~dst_pos:!pos
        ~len:row;
      pos := !pos + row
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for j = 0 to ny - 1 do
      Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:(off ~k:kfix ~j ~i:0)
        ~len:row;
      pos := !pos + row
    done

  let derived =
    Datatype.hindexed ~blocklengths:[| 1 |]
      ~displacements_bytes:[| off ~k:kfix ~j:0 ~i:0 |]
      (Datatype.contiguous (ny * nx) Datatype.float64)
end)
