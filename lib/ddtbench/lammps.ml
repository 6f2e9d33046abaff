(* LAMMPS particle-exchange kernels (DDTBench LAMMPS_full /
   LAMMPS_atomic).

   The molecular-dynamics code keeps particle properties in
   structure-of-arrays form; a boundary exchange gathers the properties
   of a non-contiguous subset of particles (an index list with non-unit
   stride) from several arrays with a single pack loop.  Table I:
   indexed + struct datatypes, single loop over 6 arrays, memory
   regions impracticable (tens of thousands of tiny blocks). *)

module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype

(* field name, bytes per particle *)
let full_fields =
  [ ("x", 24); ("v", 24); ("tag", 4); ("type", 4); ("mask", 4); ("q", 8) ]

let atomic_fields = [ ("x", 24); ("tag", 4); ("type", 4); ("mask", 4) ]

module Config = struct
  type t = { n : int; m : int; stride : int; fields : (string * int) list }

  (* Array base offsets within the one slab holding all arrays. *)
  let field_offsets c =
    let off = ref 0 in
    List.map
      (fun (name, bytes) ->
        let o = !off in
        off := !off + (c.n * bytes);
        (name, o, bytes))
      c.fields

  let slab_bytes c =
    c.n * List.fold_left (fun a (_, b) -> a + b) 0 c.fields

  (* Selected particle indices: non-unit stride through the arrays. *)
  let indices c = Array.init c.m (fun i -> i * c.stride mod c.n)

  (* Pack order: for each selected particle, each field in turn —
     the single pack loop over six arrays of the real kernel. *)
  let blocks c =
    let offsets = field_offsets c in
    let idx = indices c in
    Blocks.of_list
      (Array.to_list idx
      |> List.concat_map (fun p ->
             List.map (fun (_, base, bytes) -> (base + (p * bytes), bytes)) offsets))
end

module Make_lammps (C : sig
  val name : string
  val config : Config.t
end) = Kernel.Make (struct
  let name = C.name

  let datatypes_desc = "indexed, struct"

  let loop_desc =
    Printf.sprintf "single loop, %d arrays (non-unit stride)"
      (List.length C.config.fields)

  let regions_sensible = false
  let slab_bytes = Config.slab_bytes C.config
  let blocks = Config.blocks C.config

  (* Field array bases and widths, and the selected particles, fixed
     once so the pack loops allocate nothing. *)
  let fields = Array.of_list (Config.field_offsets C.config)
  let field_base = Array.map (fun (_, fbase, _) -> fbase) fields
  let field_bytes = Array.map (fun (_, _, bytes) -> bytes) fields
  let idx = Config.indices C.config

  let manual_pack base ~dst =
    (* single loop over the index list, packing from all arrays *)
    let pos = ref 0 in
    for k = 0 to Array.length idx - 1 do
      let p = idx.(k) in
      for f = 0 to Array.length fields - 1 do
        let bytes = field_bytes.(f) in
        Buf.blit ~src:base ~src_pos:(field_base.(f) + (p * bytes)) ~dst
          ~dst_pos:!pos ~len:bytes;
        pos := !pos + bytes
      done
    done

  let manual_unpack ~src base =
    let pos = ref 0 in
    for k = 0 to Array.length idx - 1 do
      let p = idx.(k) in
      for f = 0 to Array.length fields - 1 do
        let bytes = field_bytes.(f) in
        Buf.blit ~src ~src_pos:!pos ~dst:base
          ~dst_pos:(field_base.(f) + (p * bytes)) ~len:bytes;
        pos := !pos + bytes
      done
    done

  let derived = Kernel.hindexed_bytes_of_blocks blocks
end)

module Full = Make_lammps (struct
  let name = "LAMMPS_full"
  let config = { Config.n = 16384; m = 4096; stride = 3; fields = full_fields }
end)

module Atomic = Make_lammps (struct
  let name = "LAMMPS_atomic"
  let config = { Config.n = 16384; m = 4096; stride = 3; fields = atomic_fields }
end)
