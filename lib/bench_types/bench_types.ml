module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Derive = Mpicd_derive.Derive
module Custom = Mpicd.Custom

(* Byte [i] is [(31 i + seed + 11) mod 256], which repeats every 256
   bytes.  Since [31 * 223 = 1 (mod 256)], that is byte [i + 223 seed]
   of the seed-0 pattern, so every seed's period is a 256-byte window
   of two seed-0 periods: one blit, then doubled. *)
let period = String.init 512 (fun j -> Char.chr (((31 * j) + 11) land 0xff))

let fill_pattern ?(seed = 0) b =
  Buf.blit_from_string period
    ~src_pos:((223 * seed) land 0xff)
    ~dst:b ~dst_pos:0
    ~len:(min 256 (Buf.length b));
  Buf.repeat_prefix b ~period:256

module Double_vec = struct
  type t = Buf.t array

  (* [n] subvectors of [len] bytes, carved in order from one fresh
     zero-filled buffer. *)
  let carve ~n ~len =
    let all = Buf.create (n * len) in
    Array.init n (fun i -> Buf.sub all ~pos:(i * len) ~len)

  (* The paper's shape: [total / subvec] subvectors, or one of [total]
     bytes when the message is smaller than a subvector. *)
  let shape ~subvec_bytes ~total_bytes =
    if total_bytes < subvec_bytes then (1, total_bytes)
    else (total_bytes / subvec_bytes, subvec_bytes)

  let generate ~subvec_bytes ~total_bytes =
    if subvec_bytes <= 0 || total_bytes <= 0 then
      invalid_arg "Double_vec.generate: sizes must be positive";
    let n, len = shape ~subvec_bytes ~total_bytes in
    let t = carve ~n ~len in
    Array.iteri (fun i b -> fill_pattern ~seed:i b) t;
    t

  let make_sink ~subvec_bytes ~total_bytes =
    let n, len = shape ~subvec_bytes ~total_bytes in
    carve ~n ~len

  (* A run of subvectors that follow each other in one buffer, as
     [carve] leaves them, is zeroed as one span. *)
  let clear (t : t) =
    let n = Array.length t in
    let i = ref 0 in
    while !i < n do
      let first = t.(!i) in
      let stop = ref (first.off + first.len) and j = ref (!i + 1) in
      while !j < n && t.(!j).base == first.base && t.(!j).off = !stop do
        stop := !stop + t.(!j).len;
        incr j
      done;
      Buf.fill { first with len = !stop - first.off } '\000';
      i := !j
    done

  let total_bytes t = Array.fold_left (fun a b -> a + Buf.length b) 0 t

  let equal a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Buf.equal x y) a b

  (* The packed header: one little-endian i32 length per subvector,
     written and checked straight from the subvector array.  Byte [k]
     is byte [k mod 4] of subvector [k / 4]'s length.  A window moves
     whole lengths as 32-bit words, and bytes only where it cuts one. *)
  let header_bytes (t : t) = 4 * Array.length t
  let[@inline] header_byte (t : t) k = (t.(k lsr 2).len lsr (8 * (k land 3))) land 0xff

  (* Window [offset, offset + n) of the header: [i] is where the whole
     words start in it and [stop] where they end. *)
  let[@inline] word_span ~offset n =
    let i = min n ((4 - (offset land 3)) land 3) in
    (i, i + ((n - i) land lnot 3))

  let pack_header (t : t) ~offset ~dst n =
    let i, stop = word_span ~offset n in
    for j = 0 to i - 1 do
      Buf.set_u8 dst j (header_byte t (offset + j))
    done;
    let j = ref i in
    while !j < stop do
      Buf.set_u32 dst !j t.((offset + !j) lsr 2).len;
      j := !j + 4
    done;
    for j = stop to n - 1 do
      Buf.set_u8 dst j (header_byte t (offset + j))
    done

  let header_matches (t : t) ~offset ~src n =
    let i, stop = word_span ~offset n in
    let ok = ref true in
    for j = 0 to i - 1 do
      if Buf.get_u8 src j <> header_byte t (offset + j) then ok := false
    done;
    let j = ref i in
    while !ok && !j < stop do
      if Buf.get_u32 src !j <> t.((offset + !j) lsr 2).len land 0xffff_ffff then
        ok := false;
      j := !j + 4
    done;
    for j = stop to n - 1 do
      if Buf.get_u8 src j <> header_byte t (offset + j) then ok := false
    done;
    !ok

  let custom_dt : t Custom.t =
    Custom.create
      ~pack_pieces:(fun _ ~count:_ -> 1)
      {
        state = (fun t ~count:_ -> t);
        state_free = ignore;
        query = (fun t _ ~count:_ -> header_bytes t);
        pack =
          (fun t _ ~count:_ ~offset ~dst ->
            let len = min (Buf.length dst) (header_bytes t - offset) in
            pack_header t ~offset ~dst len;
            len);
        unpack =
          (fun t _ ~count:_ ~offset ~src ->
            (* announced subvector lengths must match the local shape *)
            let len = Buf.length src in
            if offset < 0 || offset > header_bytes t - len then
              invalid_arg "Double_vec.custom_dt: header window out of range";
            if not (header_matches t ~offset ~src len) then raise (Custom.Error 86));
        region_count = Some (fun _ t ~count:_ -> Array.length t);
        regions = Some (fun _ t ~count:_ -> Buf.Iov.of_array t);
      }

  let manual_pack_size t = 4 + (4 * Array.length t) + total_bytes t

  (* The lengths are written and read as unsigned 32-bit words: the
     same bytes as an i32 for any real length, and no boxed [int32].
     The subvectors move as a region list, so a run of them that follow
     each other in one buffer is one copy. *)
  let manual_pack t ~dst =
    if Buf.length dst < manual_pack_size t then
      invalid_arg "Double_vec.manual_pack: destination too small";
    let n = Array.length t in
    Buf.set_u32 dst 0 n;
    for i = 0 to n - 1 do
      Buf.set_u32 dst (4 + (4 * i)) (Buf.length t.(i))
    done;
    let regions = Buf.Iov.of_array t in
    Buf.Iov.gather regions
      ~dst:(Buf.sub dst ~pos:(4 + (4 * n)) ~len:(Buf.Iov.total regions))

  let manual_unpack ~src t =
    let n = Array.length t in
    if Buf.get_u32 src 0 <> n then
      invalid_arg "Double_vec.manual_unpack: shape mismatch";
    for i = 0 to n - 1 do
      if Buf.get_u32 src (4 + (4 * i)) <> Buf.length t.(i) then
        invalid_arg "Double_vec.manual_unpack: subvector length mismatch"
    done;
    let regions = Buf.Iov.of_array t in
    Buf.Iov.blit
      ~src:(Buf.Iov.of_array [| Buf.sub src ~pos:(4 + (4 * n)) ~len:(Buf.Iov.total regions) |])
      ~dst:regions
end

module type STRUCT = sig
  val layout : Derive.layout
  val sizeof : int
  val packed_elem_size : int
  val pieces_per_elem : int
  val generate : count:int -> Buf.t
  val make_sink : count:int -> Buf.t
  val count_for_packed_bytes : int -> int
  val equal_elems : Buf.t -> Buf.t -> count:int -> bool
  val derived : Datatype.t
  val custom_dt : Buf.t Custom.t
  val manual_pack : Buf.t -> count:int -> dst:Buf.t -> unit
  val manual_unpack : src:Buf.t -> Buf.t -> count:int -> unit
end

(* Shared machinery for the struct types: a C-layout struct array whose
   scalar fields are packed and whose (optional) trailing array field is
   exposed as one zero-copy region per element.  When there are no
   scalar segments at all, the whole array is a single region. *)
module Make_struct (S : sig
  val layout : Derive.layout
  val region_field : string option
  val whole_region : bool
  (* when true (only valid for gap-free layouts) the custom datatype
     exposes the entire array as a single zero-copy region and packs
     nothing — "should require no packing" (paper, Listing 8) *)
end) : STRUCT = struct
  let layout = S.layout
  let sizeof = Derive.size_of S.layout

  (* The packed scalar fields and the zero-copy region field, if any. *)
  let scalars, region_off, region_len =
    if S.whole_region then begin
      if Derive.has_padding S.layout then
        invalid_arg "Make_struct: whole_region requires a gap-free layout";
      ([], 0, 0)
    end
    else
      let is_region (name, _, _) = Some name = S.region_field in
      let fields = Derive.fields_of S.layout in
      match List.find_opt is_region fields with
      | Some (_, off, bytes) -> (List.filter (Fun.negate is_region) fields, off, bytes)
      | None -> (fields, 0, 0)

  (* One element's scalar fields as a plan, adjacent fields merged into
     one segment: the custom callbacks pack their stream windows
     through it. *)
  let scalar_plan =
    Plan.build
      (Datatype.resized ~lb:0 ~extent:sizeof
         (Datatype.hindexed
            ~blocklengths:(Array.of_list (List.map (fun (_, _, b) -> b) scalars))
            ~displacements_bytes:(Array.of_list (List.map (fun (_, o, _) -> o) scalars))
            Datatype.byte))

  let scalar_packed = Plan.size scalar_plan
  let segments = Plan.block_count scalar_plan
  let has_region = region_len > 0

  let generate ~count =
    let b = Buf.create (count * sizeof) in
    fill_pattern b;
    b

  let make_sink ~count = Buf.create (count * sizeof)

  let packed_elem_size =
    if S.whole_region then sizeof else scalar_packed + region_len

  let pieces_per_elem =
    if S.whole_region then 0 else segments + if has_region then 1 else 0

  let count_for_packed_bytes bytes = max 1 (bytes / packed_elem_size)

  let custom_dt : Buf.t Custom.t =
    Custom.create
      ~pack_pieces:(fun _ ~count -> segments * count)
      {
        state = (fun _ ~count:_ -> ());
        state_free = ignore;
        query = (fun () _ ~count -> scalar_packed * count);
        pack =
          (fun () base ~count ~offset ~dst ->
            Plan.pack_range scalar_plan ~count ~src:base ~packed_off:offset ~dst);
        unpack =
          (fun () base ~count ~offset ~src ->
            ignore
              (Plan.unpack_range scalar_plan ~count ~src ~packed_off:offset
                 ~dst:base));
        region_count =
          (if has_region then Some (fun () _ ~count -> count)
           else if scalar_packed = 0 then Some (fun () _ ~count:_ -> 1)
           else None);
        regions =
          (if has_region then
             Some
               (fun () base ~count ->
                 Buf.Iov.of_array
                   (Array.init count (fun e ->
                        Buf.sub base ~pos:((e * sizeof) + region_off) ~len:region_len)))
           else if scalar_packed = 0 then
             Some
               (fun () base ~count ->
                 Buf.Iov.of_array [| Buf.sub base ~pos:0 ~len:(count * sizeof) |])
           else None);
      }

  let derived = Derive.equivalence S.layout

  let derived_plan = Plan.build derived

  let manual_pack base ~count ~dst =
    if S.whole_region then
      Buf.blit ~src:base ~src_pos:0 ~dst ~dst_pos:0 ~len:(count * sizeof)
    else ignore (Plan.pack derived_plan ~count ~src:base ~dst)

  let manual_unpack ~src base ~count =
    if S.whole_region then
      Buf.blit ~src ~src_pos:0 ~dst:base ~dst_pos:0 ~len:(count * sizeof)
    else Plan.unpack derived_plan ~count ~src ~dst:base

  (* Elements are equal when their packed streams are. *)
  let equal_elems a b ~count =
    let packed x =
      let dst = Buf.create (count * packed_elem_size) in
      manual_pack x ~count ~dst;
      dst
    in
    Buf.equal (packed a) (packed b)
end

module Struct_vec = Make_struct (struct
  let layout =
    Derive.c_layout
      [
        Derive.field "a" Datatype.Int32;
        Derive.field "b" Datatype.Int32;
        Derive.field "c" Datatype.Int32;
        Derive.field "d" Datatype.Float64;
        Derive.field "data" ~count:2048 Datatype.Int32;
      ]

  let region_field = Some "data"
  let whole_region = false
end)

module Struct_simple = Make_struct (struct
  let layout =
    Derive.c_layout
      [
        Derive.field "a" Datatype.Int32;
        Derive.field "b" Datatype.Int32;
        Derive.field "c" Datatype.Int32;
        Derive.field "d" Datatype.Float64;
      ]

  let region_field = None
  let whole_region = false
end)

module Struct_simple_no_gap = Make_struct (struct
  let layout =
    Derive.c_layout
      [
        Derive.field "a" Datatype.Int32;
        Derive.field "b" Datatype.Int32;
        Derive.field "c" Datatype.Float64;
      ]

  let region_field = None
  let whole_region = true
end)
