module Buf = Mpicd_buf.Buf
module Stats = Mpicd_simnet.Stats

type predefined =
  | Byte
  | Char
  | Int8
  | Uint8
  | Int16
  | Int32
  | Int64
  | Float32
  | Float64

(* Internal representation: the element-displacement constructors
   (vector, indexed, indexed_block, subarray) are lowered onto the
   byte-displacement forms at construction time, so the engine only ever
   walks five shapes. *)
type t =
  | Predefined of predefined
  | Contiguous of int * t
  | Hvector of { count : int; blocklength : int; stride_bytes : int; elem : t }
  | Hindexed of {
      blocklengths : int array;
      displacements_bytes : int array;
      elem : t;
    }
  | Struct of {
      blocklengths : int array;
      displacements_bytes : int array;
      types : t array;
    }
  | Resized of { lb : int; extent : int; elem : t }

let predefined_size = function
  | Byte | Char | Int8 | Uint8 -> 1
  | Int16 -> 2
  | Int32 | Float32 -> 4
  | Int64 | Float64 -> 8

let rec size = function
  | Predefined p -> predefined_size p
  | Contiguous (n, e) -> n * size e
  | Hvector { count; blocklength; elem; _ } -> count * blocklength * size elem
  | Hindexed { blocklengths; elem; _ } ->
      Array.fold_left (fun acc bl -> acc + (bl * size elem)) 0 blocklengths
  | Struct { blocklengths; types; _ } ->
      let acc = ref 0 in
      Array.iteri (fun i bl -> acc := !acc + (bl * size types.(i))) blocklengths;
      !acc
  | Resized { elem; _ } -> size elem

(* lb/ub of one element.  Empty types have lb = ub = 0. *)
let rec bounds = function
  | Predefined p -> (0, predefined_size p)
  | Contiguous (n, e) ->
      if n = 0 then (0, 0)
      else
        let l, u = bounds e in
        let ext = u - l in
        (l, ((n - 1) * ext) + u)
  | Hvector { count; blocklength; stride_bytes; elem } ->
      if count = 0 || blocklength = 0 then (0, 0)
      else
        let l, u = bounds elem in
        let ext = u - l in
        let min_base = min 0 ((count - 1) * stride_bytes) in
        let max_base = max 0 ((count - 1) * stride_bytes) in
        (min_base + l, max_base + ((blocklength - 1) * ext) + u)
  | Hindexed { blocklengths; displacements_bytes; elem } ->
      let l, u = bounds elem in
      let ext = u - l in
      let lo = ref max_int and hi = ref min_int and any = ref false in
      Array.iteri
        (fun i bl ->
          if bl > 0 then begin
            any := true;
            let d = displacements_bytes.(i) in
            if d + l < !lo then lo := d + l;
            let top = d + ((bl - 1) * ext) + u in
            if top > !hi then hi := top
          end)
        blocklengths;
      if !any then (!lo, !hi) else (0, 0)
  | Struct { blocklengths; displacements_bytes; types } ->
      let lo = ref max_int and hi = ref min_int and any = ref false in
      Array.iteri
        (fun i bl ->
          if bl > 0 then begin
            any := true;
            let l, u = bounds types.(i) in
            let ext = u - l in
            let d = displacements_bytes.(i) in
            if d + l < !lo then lo := d + l;
            let top = d + ((bl - 1) * ext) + u in
            if top > !hi then hi := top
          end)
        blocklengths;
      if !any then (!lo, !hi) else (0, 0)
  | Resized { lb; extent; _ } -> (lb, lb + extent)

let lb t = fst (bounds t)
let ub t = snd (bounds t)
let extent t =
  let l, u = bounds t in
  u - l

(* Constructors with validation. *)

let predefined p = Predefined p
let byte = Predefined Byte
let char = Predefined Char
let int8 = Predefined Int8
let uint8 = Predefined Uint8
let int16 = Predefined Int16
let int32 = Predefined Int32
let int64 = Predefined Int64
let float32 = Predefined Float32
let float64 = Predefined Float64

let check_nonneg name v =
  if v < 0 then invalid_arg (Printf.sprintf "Datatype.%s: negative argument" name)

let contiguous n e =
  check_nonneg "contiguous" n;
  Contiguous (n, e)

let hvector ~count ~blocklength ~stride_bytes e =
  check_nonneg "hvector" count;
  check_nonneg "hvector" blocklength;
  Hvector { count; blocklength; stride_bytes; elem = e }

let vector ~count ~blocklength ~stride e =
  check_nonneg "vector" count;
  check_nonneg "vector" blocklength;
  Hvector { count; blocklength; stride_bytes = stride * extent e; elem = e }

let hindexed ~blocklengths ~displacements_bytes e =
  if Array.length blocklengths <> Array.length displacements_bytes then
    invalid_arg "Datatype.hindexed: array length mismatch";
  Array.iter (check_nonneg "hindexed") blocklengths;
  Hindexed { blocklengths; displacements_bytes; elem = e }

let indexed ~blocklengths ~displacements e =
  let ext = extent e in
  hindexed ~blocklengths
    ~displacements_bytes:(Array.map (fun d -> d * ext) displacements)
    e

let indexed_block ~blocklength ~displacements e =
  check_nonneg "indexed_block" blocklength;
  indexed
    ~blocklengths:(Array.make (Array.length displacements) blocklength)
    ~displacements e

let struct_ ~blocklengths ~displacements_bytes ~types =
  let n = Array.length blocklengths in
  if Array.length displacements_bytes <> n || Array.length types <> n then
    invalid_arg "Datatype.struct_: array length mismatch";
  Array.iter (check_nonneg "struct_") blocklengths;
  Struct { blocklengths; displacements_bytes; types }

let resized ~lb ~extent e =
  if extent < 0 then invalid_arg "Datatype.resized: negative extent";
  Resized { lb; extent; elem = e }

let subarray ~sizes ~subsizes ~starts ~order e =
  let n = Array.length sizes in
  if n = 0 then invalid_arg "Datatype.subarray: zero dimensions";
  if Array.length subsizes <> n || Array.length starts <> n then
    invalid_arg "Datatype.subarray: array length mismatch";
  for i = 0 to n - 1 do
    if subsizes.(i) < 1 || starts.(i) < 0 || starts.(i) + subsizes.(i) > sizes.(i)
    then invalid_arg "Datatype.subarray: invalid sub-region"
  done;
  (* Normalise to C (row-major) dimension order. *)
  let rev a = Array.init n (fun i -> a.(n - 1 - i)) in
  let sizes, subsizes, starts =
    match order with
    | `C -> (sizes, subsizes, starts)
    | `Fortran -> (rev sizes, rev subsizes, rev starts)
  in
  let esize = extent e in
  (* stride.(i) = bytes between consecutive indices of dimension i. *)
  let stride = Array.make n esize in
  for i = n - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * sizes.(i + 1)
  done;
  let inner = ref (contiguous subsizes.(n - 1) e) in
  for i = n - 2 downto 0 do
    inner :=
      hvector ~count:subsizes.(i) ~blocklength:1 ~stride_bytes:stride.(i) !inner
  done;
  let start_off = ref 0 in
  for i = 0 to n - 1 do
    start_off := !start_off + (starts.(i) * stride.(i))
  done;
  let placed =
    hindexed ~blocklengths:[| 1 |] ~displacements_bytes:[| !start_off |] !inner
  in
  let total = Array.fold_left ( * ) esize sizes in
  resized ~lb:0 ~extent:total placed

(* --- structural view / type-map fold --- *)

type view =
  | V_predefined of predefined
  | V_contiguous of int * t
  | V_hvector of { count : int; blocklength : int; stride_bytes : int; elem : t }
  | V_hindexed of {
      blocklengths : int array;
      displacements_bytes : int array;
      elem : t;
    }
  | V_struct of {
      blocklengths : int array;
      displacements_bytes : int array;
      types : t array;
    }
  | V_resized of { lb : int; extent : int; elem : t }

let view = function
  | Predefined p -> V_predefined p
  | Contiguous (n, e) -> V_contiguous (n, e)
  | Hvector { count; blocklength; stride_bytes; elem } ->
      V_hvector { count; blocklength; stride_bytes; elem }
  | Hindexed { blocklengths; displacements_bytes; elem } ->
      V_hindexed { blocklengths; displacements_bytes; elem }
  | Struct { blocklengths; displacements_bytes; types } ->
      V_struct { blocklengths; displacements_bytes; types }
  | Resized { lb; extent; elem } -> V_resized { lb; extent; elem }

let rec iter_typemap_at t ~base ~f =
  match t with
  | Predefined p -> f ~disp:base ~p
  | Contiguous (n, e) ->
      let ext = extent e in
      for i = 0 to n - 1 do
        iter_typemap_at e ~base:(base + (i * ext)) ~f
      done
  | Hvector { count; blocklength; stride_bytes; elem } ->
      let ext = extent elem in
      for i = 0 to count - 1 do
        let block_base = base + (i * stride_bytes) in
        for j = 0 to blocklength - 1 do
          iter_typemap_at elem ~base:(block_base + (j * ext)) ~f
        done
      done
  | Hindexed { blocklengths; displacements_bytes; elem } ->
      let ext = extent elem in
      Array.iteri
        (fun i bl ->
          let block_base = base + displacements_bytes.(i) in
          for j = 0 to bl - 1 do
            iter_typemap_at elem ~base:(block_base + (j * ext)) ~f
          done)
        blocklengths
  | Struct { blocklengths; displacements_bytes; types } ->
      Array.iteri
        (fun i bl ->
          let e = types.(i) in
          let ext = extent e in
          let block_base = base + displacements_bytes.(i) in
          for j = 0 to bl - 1 do
            iter_typemap_at e ~base:(block_base + (j * ext)) ~f
          done)
        blocklengths
  | Resized { elem; _ } -> iter_typemap_at elem ~base ~f

let iter_typemap t ~f = iter_typemap_at t ~base:0 ~f

let typemap t =
  let acc = ref [] in
  iter_typemap t ~f:(fun ~disp ~p -> acc := (disp, p) :: !acc);
  List.rev !acc

let rle_signature t =
  let acc = ref [] in
  iter_typemap t ~f:(fun ~disp:_ ~p ->
      match !acc with
      | (q, n) :: rest when q = p -> acc := (q, n + 1) :: rest
      | l -> acc := (p, 1) :: l);
  List.rev !acc

(* Raw (unmerged) block iteration for one element, in typemap order. *)
let rec iter_raw_blocks t ~base ~f =
  match t with
  | Predefined p -> f base (predefined_size p)
  | Contiguous (n, e) ->
      let ext = extent e in
      for i = 0 to n - 1 do
        iter_raw_blocks e ~base:(base + (i * ext)) ~f
      done
  | Hvector { count; blocklength; stride_bytes; elem } ->
      let ext = extent elem in
      for i = 0 to count - 1 do
        let block_base = base + (i * stride_bytes) in
        for j = 0 to blocklength - 1 do
          iter_raw_blocks elem ~base:(block_base + (j * ext)) ~f
        done
      done
  | Hindexed { blocklengths; displacements_bytes; elem } ->
      let ext = extent elem in
      Array.iteri
        (fun i bl ->
          let block_base = base + displacements_bytes.(i) in
          for j = 0 to bl - 1 do
            iter_raw_blocks elem ~base:(block_base + (j * ext)) ~f
          done)
        blocklengths
  | Struct { blocklengths; displacements_bytes; types } ->
      Array.iteri
        (fun i bl ->
          let e = types.(i) in
          let ext = extent e in
          let block_base = base + displacements_bytes.(i) in
          for j = 0 to bl - 1 do
            iter_raw_blocks e ~base:(block_base + (j * ext)) ~f
          done)
        blocklengths
  | Resized { elem; _ } -> iter_raw_blocks elem ~base ~f

(* Merging wrapper: coalesce blocks that are byte-adjacent. *)
let iter_blocks t ~count ~f =
  let ext = extent t in
  let pending_disp = ref 0 and pending_len = ref 0 in
  let emit disp len =
    if len > 0 then
      if !pending_len > 0 && !pending_disp + !pending_len = disp then
        pending_len := !pending_len + len
      else begin
        if !pending_len > 0 then f ~disp:!pending_disp ~len:!pending_len;
        pending_disp := disp;
        pending_len := len
      end
  in
  for i = 0 to count - 1 do
    iter_raw_blocks t ~base:(i * ext) ~f:emit
  done;
  if !pending_len > 0 then f ~disp:!pending_disp ~len:!pending_len

let block_list t ~count =
  let acc = ref [] in
  iter_blocks t ~count ~f:(fun ~disp ~len -> acc := (disp, len) :: !acc);
  List.rev !acc

let blocks_per_element t = List.length (block_list t ~count:1)

let is_contiguous t =
  size t = extent t && lb t = 0
  && match block_list t ~count:1 with
     | [ (0, len) ] -> len = size t
     | [] -> size t = 0
     | _ -> false

(* Single linear typemap walk: one cons per leaf, no intermediate
   per-constructor list concatenation. *)
let signature t =
  let acc = ref [] in
  iter_typemap t ~f:(fun ~disp:_ ~p -> acc := p :: !acc);
  List.rev !acc

(* Two signatures are equal iff their maximal run-length encodings are
   equal, so compare the compact form instead of materializing the full
   leaf lists (struct-of-vector comparisons were quadratic). *)
let equal_signature a b = rle_signature a = rle_signature b

let pp_predefined ppf p =
  Format.pp_print_string ppf
    (match p with
    | Byte -> "byte"
    | Char -> "char"
    | Int8 -> "i8"
    | Uint8 -> "u8"
    | Int16 -> "i16"
    | Int32 -> "i32"
    | Int64 -> "i64"
    | Float32 -> "f32"
    | Float64 -> "f64")

let rec pp ppf = function
  | Predefined p -> pp_predefined ppf p
  | Contiguous (n, e) -> Format.fprintf ppf "contig(%d,%a)" n pp e
  | Hvector { count; blocklength; stride_bytes; elem } ->
      Format.fprintf ppf "hvector(%d,%d,%dB,%a)" count blocklength stride_bytes
        pp elem
  | Hindexed { blocklengths; displacements_bytes; elem } ->
      (* Bounded summary: lint reports need the displacements to be
         actionable, but huge index lists must not explode the output. *)
      let n = Array.length blocklengths in
      let shown = min n 4 in
      let pp_disps ppf () =
        for i = 0 to shown - 1 do
          if i > 0 then Format.fprintf ppf ",";
          Format.fprintf ppf "%d:%dB" blocklengths.(i) displacements_bytes.(i)
        done;
        if n > shown then Format.fprintf ppf ",..+%d" (n - shown)
      in
      Format.fprintf ppf "hindexed(%d blocks[%a],%a)" n pp_disps () pp elem
  | Struct { blocklengths; types; _ } ->
      Format.fprintf ppf "struct(%d fields:%a)"
        (Array.length blocklengths)
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp)
        (Array.to_list types)
  | Resized { lb; extent; elem } ->
      Format.fprintf ppf "resized(lb=%d,ext=%d,%a)" lb extent pp elem

let to_string t = Format.asprintf "%a" pp t

let packed_size t ~count = count * size t

let record_block stats bytes =
  match stats with
  | None -> ()
  | Some s ->
      Stats.incr s Ddt_blocks_processed;
      Stats.record_copy s bytes

let pack ?stats t ~count ~src ~dst =
  let pos = ref 0 in
  iter_blocks t ~count ~f:(fun ~disp ~len ->
      Buf.blit ~src ~src_pos:disp ~dst ~dst_pos:!pos ~len;
      record_block stats len;
      pos := !pos + len);
  !pos

let unpack ?stats t ~count ~src ~dst =
  let pos = ref 0 in
  iter_blocks t ~count ~f:(fun ~disp ~len ->
      Buf.blit ~src ~src_pos:!pos ~dst ~dst_pos:disp ~len;
      record_block stats len;
      pos := !pos + len);
  let expected = packed_size t ~count in
  if !pos <> expected then
    invalid_arg
      (Printf.sprintf "Datatype.unpack: consumed %d bytes, expected %d" !pos
         expected)

exception Done

(* Walk the packed stream and apply [f] to the sub-blocks overlapping
   [packed_off, packed_off + window). *)
let range_walk t ~count ~packed_off ~window ~f =
  let hi = packed_off + window in
  let pos = ref 0 in
  (try
     iter_blocks t ~count ~f:(fun ~disp ~len ->
         let block_lo = !pos and block_hi = !pos + len in
         if block_lo >= hi then raise Done;
         let lo = max block_lo packed_off and up = min block_hi hi in
         if lo < up then
           (* typed-side offset of the overlap start *)
           f ~disp:(disp + (lo - block_lo)) ~packed_pos:lo ~len:(up - lo);
         pos := block_hi)
   with Done -> ());
  min hi (packed_size t ~count) - packed_off |> max 0

let pack_range ?stats t ~count ~src ~packed_off ~dst =
  range_walk t ~count ~packed_off ~window:(Buf.length dst)
    ~f:(fun ~disp ~packed_pos ~len ->
      Buf.blit ~src ~src_pos:disp ~dst ~dst_pos:(packed_pos - packed_off) ~len;
      record_block stats len)

let unpack_range ?stats t ~count ~src ~packed_off ~dst =
  range_walk t ~count ~packed_off ~window:(Buf.length src)
    ~f:(fun ~disp ~packed_pos ~len ->
      Buf.blit ~src ~src_pos:(packed_pos - packed_off) ~dst ~dst_pos:disp ~len;
      record_block stats len)

let iovec t ~count ~base =
  let acc = ref [] in
  iter_blocks t ~count ~f:(fun ~disp ~len ->
      acc := Buf.sub base ~pos:disp ~len :: !acc);
  List.rev !acc

(* --- marshalling (Kimpe et al. style) --- *)

exception Corrupt_datatype of string

let predefined_code = function
  | Byte -> 0
  | Char -> 1
  | Int8 -> 2
  | Uint8 -> 3
  | Int16 -> 4
  | Int32 -> 5
  | Int64 -> 6
  | Float32 -> 7
  | Float64 -> 8

let predefined_of_code = function
  | 0 -> Byte
  | 1 -> Char
  | 2 -> Int8
  | 3 -> Uint8
  | 4 -> Int16
  | 5 -> Int32
  | 6 -> Int64
  | 7 -> Float32
  | 8 -> Float64
  | c -> raise (Corrupt_datatype (Printf.sprintf "bad predefined code %d" c))

let serialize t =
  let b = Buffer.create 64 in
  let u8 v = Buffer.add_char b (Char.chr (v land 0xff)) in
  let i64 v =
    let v = Int64.of_int v in
    for k = 0 to 7 do
      u8 (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
    done
  in
  let int_array a =
    i64 (Array.length a);
    Array.iter i64 a
  in
  let rec go = function
    | Predefined p ->
        u8 0;
        u8 (predefined_code p)
    | Contiguous (n, e) ->
        u8 1;
        i64 n;
        go e
    | Hvector { count; blocklength; stride_bytes; elem } ->
        u8 2;
        i64 count;
        i64 blocklength;
        i64 stride_bytes;
        go elem
    | Hindexed { blocklengths; displacements_bytes; elem } ->
        u8 3;
        int_array blocklengths;
        int_array displacements_bytes;
        go elem
    | Struct { blocklengths; displacements_bytes; types } ->
        u8 4;
        int_array blocklengths;
        int_array displacements_bytes;
        Array.iter go types
    | Resized { lb; extent; elem } ->
        u8 5;
        i64 lb;
        i64 extent;
        go elem
  in
  go t;
  Mpicd_buf.Buf.of_string (Buffer.contents b)

let deserialize buf =
  let module Buf = Mpicd_buf.Buf in
  let pos = ref 0 in
  let u8 () =
    if !pos >= Buf.length buf then raise (Corrupt_datatype "truncated");
    let v = Buf.get_u8 buf !pos in
    incr pos;
    v
  in
  let i64 () =
    let v = ref 0L in
    for k = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 ())) (8 * k))
    done;
    Int64.to_int !v
  in
  let int_array () =
    let n = i64 () in
    if n < 0 || n > 1 lsl 30 then raise (Corrupt_datatype "bad array length");
    Array.init n (fun _ -> i64 ())
  in
  let rec go () =
    match u8 () with
    | 0 -> Predefined (predefined_of_code (u8 ()))
    | 1 ->
        let n = i64 () in
        if n < 0 then raise (Corrupt_datatype "negative count");
        Contiguous (n, go ())
    | 2 ->
        let count = i64 () in
        let blocklength = i64 () in
        let stride_bytes = i64 () in
        if count < 0 || blocklength < 0 then
          raise (Corrupt_datatype "negative hvector field");
        Hvector { count; blocklength; stride_bytes; elem = go () }
    | 3 ->
        let blocklengths = int_array () in
        let displacements_bytes = int_array () in
        if Array.length blocklengths <> Array.length displacements_bytes then
          raise (Corrupt_datatype "hindexed arity mismatch");
        Hindexed { blocklengths; displacements_bytes; elem = go () }
    | 4 ->
        let blocklengths = int_array () in
        let displacements_bytes = int_array () in
        if Array.length blocklengths <> Array.length displacements_bytes then
          raise (Corrupt_datatype "struct arity mismatch");
        let types = Array.map (fun _ -> go ()) blocklengths in
        Struct { blocklengths; displacements_bytes; types }
    | 5 ->
        let lb = i64 () in
        let extent = i64 () in
        if extent < 0 then raise (Corrupt_datatype "negative extent");
        Resized { lb; extent; elem = go () }
    | c -> raise (Corrupt_datatype (Printf.sprintf "bad constructor tag %d" c))
  in
  let t = go () in
  if !pos <> Buf.length buf then raise (Corrupt_datatype "trailing bytes");
  t

let equal a b = a = b
