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

external get32 : Buf.bigstring -> int -> int32 = "%caml_bigstring_get32u"
external set32 : Buf.bigstring -> int -> int32 -> unit = "%caml_bigstring_set32u"
external get64 : Buf.bigstring -> int -> int64 = "%caml_bigstring_get64u"
external set64 : Buf.bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"

(* One field of one particle, [bytes] (a multiple of 4) from [s] at
   [so] to [d] at [d_o], with no range test: 8-byte words, then at most
   one 4-byte tail. *)
let[@inline] move_field s so d d_o bytes =
  let i = ref 0 in
  while !i + 8 <= bytes do
    set64 d (d_o + !i) (get64 s (so + !i));
    i := !i + 8
  done;
  if !i < bytes then set32 d (d_o + !i) (get32 s (so + !i))

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

  (* Selected particle [k]: non-unit stride through the arrays. *)
  let index c k = k * c.stride mod c.n
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

  (* Field array bases and widths, fixed once so the pack loops
     allocate nothing. *)
  let fields = Array.of_list (Config.field_offsets C.config)
  let field_base = Array.map (fun (_, fbase, _) -> fbase) fields
  let field_bytes = Array.map (fun (_, _, bytes) -> bytes) fields
  let m = C.config.m
  let wire = m * Array.fold_left ( + ) 0 field_bytes

  (* The selected particles in order: [Config.index] stepped by the
     stride, reduced mod n, with no division per particle. *)
  let n = C.config.n
  let step = C.config.stride mod n
  let[@inline] next p = if p + step >= n then p + step - n else p + step

  (* [move_field] needs every field to be whole 32-bit words. *)
  let () =
    if not (Array.for_all (fun b -> b mod 4 = 0) field_bytes) then
      invalid_arg "Lammps: field widths must be multiples of 4 bytes"

  (* The single loop over the index list, moving every field of each
     selected particle between the slab ([typed]) and the packed
     stream.  The slab must hold every field array and the stream the
     whole exchange, and the two must be distinct bigstrings: checked
     once, the fields then move as words; otherwise each field is one
     [Buf.blit], which raises on the first that does not fit. *)
  let exchange ~pack ~(typed : Buf.t) ~(stream : Buf.t) =
    if
      typed.base != stream.base
      && Buf.length typed >= slab_bytes
      && Buf.length stream >= wire
    then begin
      let pos = ref stream.off and p = ref 0 in
      for _ = 1 to m do
        let p' = !p in
        for f = 0 to Array.length field_bytes - 1 do
          let bytes = Array.unsafe_get field_bytes f in
          let t = typed.off + Array.unsafe_get field_base f + (p' * bytes) in
          if pack then move_field typed.base t stream.base !pos bytes
          else move_field stream.base !pos typed.base t bytes;
          pos := !pos + bytes
        done;
        p := next p'
      done
    end
    else begin
      let pos = ref 0 and p = ref 0 in
      for _ = 1 to m do
        for f = 0 to Array.length field_bytes - 1 do
          let bytes = field_bytes.(f) in
          let t = field_base.(f) + (!p * bytes) in
          if pack then
            Buf.blit ~src:typed ~src_pos:t ~dst:stream ~dst_pos:!pos ~len:bytes
          else Buf.blit ~src:stream ~src_pos:!pos ~dst:typed ~dst_pos:t ~len:bytes;
          pos := !pos + bytes
        done;
        p := next !p
      done
    end

  let manual_pack base ~dst = exchange ~pack:true ~typed:base ~stream:dst
  let manual_unpack ~src base = exchange ~pack:false ~typed:base ~stream:src

  (* Its typemap order is the wire format: one hindexed block of bytes
     per field of each selected particle, in pack order. *)
  let derived =
    let nf = Array.length field_bytes in
    let blocklengths = Array.make (m * nf) 0 in
    let displacements_bytes = Array.make (m * nf) 0 in
    for k = 0 to m - 1 do
      let p = Config.index C.config k in
      for f = 0 to nf - 1 do
        blocklengths.((k * nf) + f) <- field_bytes.(f);
        displacements_bytes.((k * nf) + f) <-
          field_base.(f) + (p * field_bytes.(f))
      done
    done;
    Datatype.hindexed ~blocklengths ~displacements_bytes Datatype.byte
end)

module Full = Make_lammps (struct
  let name = "LAMMPS_full"
  let config = { Config.n = 16384; m = 4096; stride = 3; fields = full_fields }
end)

module Atomic = Make_lammps (struct
  let name = "LAMMPS_atomic"
  let config = { Config.n = 16384; m = 4096; stride = 3; fields = atomic_fields }
end)
