(* Additional DDTBench kernels beyond the paper's Fig. 10 subset,
   included for suite completeness: the FFT all-to-all column block and
   the SPECFEM3D outer-core gather. *)

module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype

(* FFT2: 2-D transpose exchange — a block of [w] columns of an n x n
   complex (2 x f64 = 16 B) matrix: n medium-sized strided blocks. *)
module Fft2 = Kernel.Make (struct
  let name = "FFT2"
  let datatypes_desc = "strided vector"
  let loop_desc = "2 nested loops (non-contiguous)"
  let regions_sensible = true

  let n = 256
  let w = 16
  let c0 = 8 (* first column of the block *)
  let celem = 16
  let slab_bytes = n * n * celem

  let off ~row ~col = ((row * n) + col) * celem

  let manual_pack base ~dst =
    let pos = ref 0 in
    for row = 0 to n - 1 do
      for col = c0 to c0 + w - 1 do
        Buf.blit ~src:base ~src_pos:(off ~row ~col) ~dst ~dst_pos:!pos ~len:celem;
        pos := !pos + celem
      done
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for row = 0 to n - 1 do
      for col = c0 to c0 + w - 1 do
        Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:(off ~row ~col) ~len:celem;
        pos := !pos + celem
      done
    done

  let derived =
    Datatype.hindexed ~blocklengths:[| 1 |]
      ~displacements_bytes:[| c0 * celem |]
      (Datatype.hvector ~count:n ~blocklength:(w * 2) ~stride_bytes:(n * celem)
         Datatype.float64)
end)

(* SPECFEM3D_oc: the spectral-element outer-core coupling gathers
   single float32 values at an irregular index list — the worst case
   for everything except plain packing. *)
module Specfem3d_oc = Kernel.Make (struct
  let name = "SPECFEM3D_oc"
  let datatypes_desc = "indexed_block"
  let loop_desc = "single loop (irregular indices)"
  let regions_sensible = false

  let n = 262144
  let m = 16384
  let elem = 4
  let slab_bytes = n * elem

  (* deterministic scrambled-but-increasing index pattern, in closed
     form so that only the derived datatype keeps a copy *)
  let index i = (i * 13 mod 16) + (i * (n / m))

  let manual_pack base ~dst =
    for k = 0 to m - 1 do
      Buf.blit ~src:base ~src_pos:(index k * elem) ~dst ~dst_pos:(k * elem)
        ~len:elem
    done

  let manual_unpack ~src base =
    for k = 0 to m - 1 do
      Buf.blit ~src ~src_pos:(k * elem) ~dst:base ~dst_pos:(index k * elem)
        ~len:elem
    done

  let derived =
    Datatype.indexed_block ~blocklength:1 ~displacements:(Array.init m index)
      Datatype.float32
end)

(* SPECFEM3D_mt: the mantle coupling gather — 3-component float32
   vectors (displacement) at an irregular but blocked index list:
   indexed with blocklength 3, medium-sized block count. *)
module Specfem3d_mt = Kernel.Make (struct
  let name = "SPECFEM3D_mt"
  let datatypes_desc = "indexed_block (blocklength 3)"
  let loop_desc = "single loop (irregular indices)"
  let regions_sensible = false

  let n = 98304 (* 32768 grid points x 3 components *)
  let m = 8192 (* gathered points *)
  let elem = 4
  let slab_bytes = n * elem

  (* deterministic irregular point list; each point contributes its 3
     consecutive components.  The inter-point gap alternates (15, 15, 6
     elements) and always exceeds the blocklength, so blocks stay
     disjoint: the original (i*3)-based list made every third block
     byte-adjacent to its predecessor, which the guideline checker
     rightly flagged as a committed type slower than its coalesced
     normal form.  In closed form, so that only the derived datatype
     keeps a copy. *)
  let index i = ((i * 4) + (i * 7 mod 3)) * 3

  (* a point's 3 components are adjacent: one 12-byte copy each *)
  let point = 3 * elem

  let manual_pack base ~dst =
    for k = 0 to m - 1 do
      Buf.blit ~src:base ~src_pos:(index k * elem) ~dst ~dst_pos:(k * point)
        ~len:point
    done

  let manual_unpack ~src base =
    for k = 0 to m - 1 do
      Buf.blit ~src ~src_pos:(k * point) ~dst:base ~dst_pos:(index k * elem)
        ~len:point
    done

  let derived =
    Datatype.indexed_block ~blocklength:3 ~displacements:(Array.init m index)
      Datatype.float32
end)

(* MILC su3_xdown: the x-direction face of the same lattice as
   su3_zdown, but with layout [t][y][z][x] every face site is an
   isolated 72-byte block — the many-small-regions counterpart to
   zdown's contiguous x-runs. *)
module Milc_su3_xdown = Kernel.Make (struct
  let name = "MILC_su3_xdown"
  let datatypes_desc = "strided vector"
  let loop_desc = "5 nested loops (non-unit stride)"
  let regions_sensible = true

  let site_bytes = 72
  let nx = 16
  let ny = 16
  let nz = 16
  let nt = 16
  let x0 = 1
  let slab_bytes = nt * ny * nz * nx * site_bytes

  let site_off ~t ~y ~z ~x = ((((t * ny) + y) * nz) + z) * nx + x

  let manual_pack base ~dst =
    let pos = ref 0 in
    for t = 0 to nt - 1 do
      for y = 0 to ny - 1 do
        for z = 0 to nz - 1 do
          let site = site_off ~t ~y ~z ~x:x0 * site_bytes in
          Buf.blit ~src:base ~src_pos:site ~dst ~dst_pos:!pos ~len:site_bytes;
          pos := !pos + site_bytes
        done
      done
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for t = 0 to nt - 1 do
      for y = 0 to ny - 1 do
        for z = 0 to nz - 1 do
          let site = site_off ~t ~y ~z ~x:x0 * site_bytes in
          Buf.blit ~src ~src_pos:!pos ~dst:base ~dst_pos:site ~len:site_bytes;
          pos := !pos + site_bytes
        done
      done
    done

  let derived =
    Datatype.hindexed ~blocklengths:[| 1 |]
      ~displacements_bytes:[| x0 * site_bytes |]
      (Datatype.hvector ~count:(nt * ny * nz) ~blocklength:18
         ~stride_bytes:(nx * site_bytes) Datatype.float32)
end)
