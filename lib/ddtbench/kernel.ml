module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Custom = Mpicd.Custom

module type SPEC = sig
  val name : string
  val datatypes_desc : string
  val loop_desc : string
  val regions_sensible : bool
  val slab_bytes : int
  val manual_pack : Buf.t -> dst:Buf.t -> unit
  val manual_unpack : src:Buf.t -> Buf.t -> unit
  val derived : Datatype.t
end

module type KERNEL = sig
  include SPEC

  val wire_bytes : int
  val plan : Plan.t
  val create : unit -> Buf.t
  val create_sink : unit -> Buf.t
  val equal : Buf.t -> Buf.t -> bool
  val custom_pack : Buf.t Custom.t
  val custom_regions : Buf.t Custom.t option
end

(* Byte [i] is [(131 i + 17) mod 256], which repeats every 256 bytes:
   one period is written byte by byte and then doubled. *)
let fill b =
  for i = 0 to min 256 (Buf.length b) - 1 do
    Buf.set_u8 b i ((i * 131 + 17) land 0xff)
  done;
  Buf.repeat_prefix b ~period:256

module Make (S : SPEC) : KERNEL = struct
  include S

  let wire_bytes = Datatype.size S.derived

  (* One handle per kernel in the global memo cache, compiled on first
     use and shared by every operation; each operation gets its own
     cursor.  Its block table is the kernel's one layout table. *)
  let plan = Plan.get S.derived

  (* The plan's blocks as regions of a slab, shared by every message. *)
  let region_table = lazy (Plan.region_table plan)

  let create () =
    let b = Buf.create S.slab_bytes in
    fill b;
    b

  let create_sink () = Buf.create S.slab_bytes

  let equal a b =
    let table = Lazy.force region_table in
    let ra = Buf.Iov.of_table a table and rb = Buf.Iov.of_table b table in
    let rec from i =
      i = Buf.Iov.count ra
      || (Buf.equal (Buf.Iov.get ra i) (Buf.Iov.get rb i) && from (i + 1))
    in
    from 0

  (* Custom datatype, packing everything through resumable callbacks.
     The per-operation state is a plan cursor, so a transport that walks
     the stream fragment by fragment resumes each callback in O(1)
     instead of re-deriving the position, and [count] scales the
     stream. *)
  let custom_pack : Buf.t Custom.t =
    Custom.create
      ~pack_pieces:(fun _ ~count:_ -> Plan.block_count plan)
      {
        state = (fun _ ~count:_ -> Plan.cursor plan);
        state_free = ignore;
        query = (fun _ _ ~count -> count * wire_bytes);
        pack =
          (fun cur base ~count ~offset ~dst ->
            Plan.pack_range ~cursor:cur plan ~count ~src:base
              ~packed_off:offset ~dst);
        unpack =
          (fun cur base ~count ~offset ~src ->
            ignore
              (Plan.unpack_range ~cursor:cur plan ~count ~src
                 ~packed_off:offset ~dst:base));
        region_count = None;
        regions = None;
      }

  (* Custom datatype exposing every block as a zero-copy region: each
     message's regions are the slab cut by the plan's table. *)
  let custom_regions : Buf.t Custom.t option =
    if not S.regions_sensible then None
    else
      Some
        (Custom.create
           {
             state = (fun _ ~count:_ -> ());
             state_free = ignore;
             query = (fun () _ ~count:_ -> 0);
             pack = (fun () _ ~count:_ ~offset:_ ~dst:_ -> 0);
             unpack = (fun () _ ~count:_ ~offset:_ ~src:_ -> ());
             region_count = Some (fun () _ ~count:_ -> Plan.block_count plan);
             regions =
               Some
                 (fun () base ~count:_ ->
                   Buf.Iov.of_table base (Lazy.force region_table));
           })
end

type kernel = (module KERNEL)
