(* MILC su3_zdown kernel (DDTBench MILC_su3_zdown).

   Lattice QCD on a 4-D lattice of su3 matrices (3x3 complex float32,
   72 B per site).  The z-down halo gathers the z = z0 hyperplane.
   With layout [t][y][z][x], sites of the face form one contiguous run
   of nx sites per (t, y) pair: a modest number of fairly large blocks,
   which is why the paper finds memory regions profitable here.
   Table I: strided vector, 5 nested loops (t, y, x, color row,
   complex), non-unit stride. *)

module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype

let site_bytes = 72 (* 3x3 complex f32 = 18 floats *)

let nx = 16
let ny = 16
let nz = 16
let nt = 16
let z0 = 1 (* exchanged hyperplane *)

let site_off ~t ~y ~z ~x = ((((t * ny) + y) * nz) + z) * nx + x

module Spec = struct
  let name = "MILC_su3_zdown"
  let datatypes_desc = "strided vector"
  let loop_desc = "5 nested loops (non-unit stride)"
  let regions_sensible = true
  let slab_bytes = nt * ny * nz * nx * site_bytes

  (* The real kernel packs float-by-float with five nested loops; the
     inner two (3 color rows of 3 complex f32) walk one whole site, so
     each site moves as one 72-byte copy. *)
  let manual_pack base ~dst =
    let pos = ref 0 in
    for t = 0 to nt - 1 do
      for y = 0 to ny - 1 do
        for x = 0 to nx - 1 do
          let site = site_off ~t ~y ~z:z0 ~x * site_bytes in
          Buf.blit ~src:base ~src_pos:site ~dst ~dst_pos:!pos ~len:site_bytes;
          pos := !pos + site_bytes
        done
      done
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for t = 0 to nt - 1 do
      for y = 0 to ny - 1 do
        for x = 0 to nx - 1 do
          let site = site_off ~t ~y ~z:z0 ~x * site_bytes in
          Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:site ~len:site_bytes;
          pos := !pos + site_bytes
        done
      done
    done

  let derived =
    (* nested strided vectors over the contiguous x-runs of the face *)
    let run = Datatype.contiguous (nx * 18) Datatype.float32 in
    let ys =
      Datatype.hvector ~count:ny ~blocklength:1
        ~stride_bytes:(nz * nx * site_bytes) run
    in
    let ts =
      Datatype.hvector ~count:nt ~blocklength:1
        ~stride_bytes:(ny * nz * nx * site_bytes) ys
    in
    Datatype.hindexed ~blocklengths:[| 1 |]
      ~displacements_bytes:[| z0 * nx * site_bytes |]
      ts
end

include Kernel.Make (Spec)
