module Buf = Mpicd_buf.Buf

type dtype = F64 | F32 | I64 | I32 | U8

type ndarray = { shape : int array; dtype : dtype; data : Buf.t }

type t =
  | None_
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Bytes of Buf.t
  | List of t list
  | Tuple of t list
  | Dict of (t * t) list
  | Ndarray of ndarray

exception Corrupt of string

let dtype_size = function F64 | I64 -> 8 | F32 | I32 -> 4 | U8 -> 1

let dtype_code = function F64 -> 0 | F32 -> 1 | I64 -> 2 | I32 -> 3 | U8 -> 4

let dtype_of_code = function
  | 0 -> F64
  | 1 -> F32
  | 2 -> I64
  | 3 -> I32
  | 4 -> U8
  | c -> raise (Corrupt (Printf.sprintf "bad dtype code %d" c))

let numel a = Array.fold_left ( * ) 1 a.shape

let ndarray ?(dtype = F64) shape =
  Array.iter (fun d -> if d < 0 then invalid_arg "Pickle.ndarray: negative dim") shape;
  let n = Array.fold_left ( * ) 1 shape in
  { shape; dtype; data = Buf.create (n * dtype_size dtype) }

let ndarray_of_floats fs =
  let a = ndarray [| Array.length fs |] in
  Array.iteri (fun i v -> Buf.set_f64 a.data (8 * i) v) fs;
  a

let floats_of_ndarray a =
  if a.dtype <> F64 then invalid_arg "Pickle.floats_of_ndarray: not F64";
  Array.init (numel a) (fun i -> Buf.get_f64 a.data (8 * i))

(* --- opcodes --- *)

let op_none = 0x4E
let op_true = 0x54
let op_false = 0x46
let op_int = 0x49
let op_float = 0x47
let op_str = 0x55
let op_bytes = 0x42 (* in-band bytes *)
let op_oob = 0x4F (* out-of-band buffer reference *)
let op_list = 0x6C
let op_tuple = 0x74
let op_dict = 0x64
let op_ndarray = 0x41
let op_stop = 0x2E

(* --- writer ---

   Two passes: [size] computes the exact stream length, then the writer
   fills one buffer of that length front to back, so no growable
   buffer, intermediate string or final copy ever holds the stream. *)

module Writer = struct
  type w = {
    buf : Buf.t;
    mutable pos : int;
    mutable oob : Buf.t list;  (* newest first *)
    mutable noob : int;
    oob_threshold : int option;  (* None -> everything in-band (protocol 4) *)
  }

  let goes_oob oob_threshold b ~force_oob =
    match oob_threshold with
    | None -> false
    | Some thr -> force_oob || Buf.length b >= thr

  (* opcode + i32 index + i32 length, or opcode + i32 length + bytes *)
  let payload_size thr b ~force_oob =
    if goes_oob thr b ~force_oob then 9 else 5 + Buf.length b

  let rec size thr = function
    | None_ | Bool _ -> 1
    | Int _ | Float _ -> 9
    | Str s -> 5 + String.length s
    | Bytes b -> payload_size thr b ~force_oob:false
    | List items | Tuple items ->
        List.fold_left (fun acc v -> acc + size thr v) 5 items
    | Dict pairs ->
        List.fold_left (fun acc (k, v) -> acc + size thr k + size thr v) 5 pairs
    | Ndarray a ->
        3 + (4 * Array.length a.shape) + payload_size thr a.data ~force_oob:true

  (* Every byte of the stream is written, so its storage starts
     uninitialised. *)
  let create oob_threshold v =
    let n = size oob_threshold v + 1 (* stop *) in
    {
      buf =
        Buf.of_bigstring (Bigarray.Array1.create Bigarray.char Bigarray.c_layout n);
      pos = 0;
      oob = [];
      noob = 0;
      oob_threshold;
    }

  let u8 w v =
    Buf.set_u8 w.buf w.pos v;
    w.pos <- w.pos + 1

  (* the low 32 bits, little-endian *)
  let i32 w v =
    Buf.set_u32 w.buf w.pos v;
    w.pos <- w.pos + 4

  let i64 w v =
    Buf.set_i64 w.buf w.pos v;
    w.pos <- w.pos + 8

  (* Emit a payload either in-band or as an out-of-band reference. *)
  let payload w (b : Buf.t) ~force_oob =
    if goes_oob w.oob_threshold b ~force_oob then begin
      u8 w op_oob;
      i32 w w.noob;
      i32 w (Buf.length b);
      w.oob <- b :: w.oob;
      w.noob <- w.noob + 1
    end
    else begin
      u8 w op_bytes;
      i32 w (Buf.length b);
      Buf.blit ~src:b ~src_pos:0 ~dst:w.buf ~dst_pos:w.pos ~len:(Buf.length b);
      w.pos <- w.pos + Buf.length b
    end

  let rec value w = function
    | None_ -> u8 w op_none
    | Bool true -> u8 w op_true
    | Bool false -> u8 w op_false
    | Int v ->
        u8 w op_int;
        i64 w v
    | Float f ->
        u8 w op_float;
        i64 w (Int64.bits_of_float f)
    | Str s ->
        u8 w op_str;
        i32 w (String.length s);
        Buf.blit_from_string s ~src_pos:0 ~dst:w.buf ~dst_pos:w.pos
          ~len:(String.length s);
        w.pos <- w.pos + String.length s
    | Bytes b -> payload w b ~force_oob:false
    | List items ->
        u8 w op_list;
        i32 w (List.length items);
        List.iter (value w) items
    | Tuple items ->
        u8 w op_tuple;
        i32 w (List.length items);
        List.iter (value w) items
    | Dict pairs ->
        u8 w op_dict;
        i32 w (List.length pairs);
        List.iter
          (fun (k, v) ->
            value w k;
            value w v)
          pairs
    | Ndarray a ->
        u8 w op_ndarray;
        u8 w (dtype_code a.dtype);
        u8 w (Array.length a.shape);
        Array.iter (fun d -> i32 w d) a.shape;
        (* NumPy buffers always go out-of-band under protocol 5. *)
        payload w a.data ~force_oob:true

  let run oob_threshold v =
    let w = create oob_threshold v in
    value w v;
    u8 w op_stop;
    assert (w.pos = Buf.length w.buf);
    (w.buf, List.rev w.oob)
end

let dumps v = fst (Writer.run None v)

let dumps_oob ?(oob_threshold = 1024) v = Writer.run (Some oob_threshold) v

(* --- reader --- *)

module Reader = struct
  type r = { src : Buf.t; mutable pos : int; buffers : Buf.t array }

  let create src buffers = { src; pos = 0; buffers = Array.of_list buffers }

  let u8 r =
    if r.pos >= Buf.length r.src then raise (Corrupt "truncated stream");
    let v = Buf.get_u8 r.src r.pos in
    r.pos <- r.pos + 1;
    v

  let i32 r =
    let a = u8 r and b = u8 r and c = u8 r and d = u8 r in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

  let i64 r =
    let v = ref 0L in
    for k = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 r)) (8 * k))
    done;
    !v

  let raw r n =
    if n < 0 || r.pos + n > Buf.length r.src then
      raise (Corrupt "bad payload length");
    let b = Buf.sub r.src ~pos:r.pos ~len:n in
    r.pos <- r.pos + n;
    b

  (* Read a payload; in-band data is copied out of the stream,
     out-of-band references alias the supplied buffers. *)
  let payload r op =
    if op = op_bytes then Buf.copy (raw r (i32 r))
    else if op = op_oob then begin
      let idx = i32 r in
      let len = i32 r in
      if idx < 0 || idx >= Array.length r.buffers then
        raise (Corrupt (Printf.sprintf "missing out-of-band buffer %d" idx));
      let b = r.buffers.(idx) in
      if Buf.length b <> len then
        raise
          (Corrupt
             (Printf.sprintf "out-of-band buffer %d: expected %d bytes, got %d"
                idx len (Buf.length b)));
      b
    end
    else raise (Corrupt (Printf.sprintf "expected payload, got opcode 0x%02x" op))

  (* [numel * itemsize], or [Corrupt] if that product overflows: a
     wrapped product could match a short payload.  Dimensions are read
     unsigned, so none is negative. *)
  let shape_bytes shape dtype =
    if Array.mem 0 shape then 0
    else
      Array.fold_left
        (fun acc d ->
          if acc > max_int / d then raise (Corrupt "ndarray shape overflows");
          acc * d)
        (dtype_size dtype) shape

  let rec value r =
    let op = u8 r in
    if op = op_none then None_
    else if op = op_true then Bool true
    else if op = op_false then Bool false
    else if op = op_int then Int (i64 r)
    else if op = op_float then Float (Int64.float_of_bits (i64 r))
    else if op = op_str then begin
      let n = i32 r in
      Str (Buf.to_string (raw r n))
    end
    else if op = op_bytes || op = op_oob then Bytes (payload r op)
    else if op = op_list then begin
      let n = i32 r in
      List (List.init n (fun _ -> value r))
    end
    else if op = op_tuple then begin
      let n = i32 r in
      Tuple (List.init n (fun _ -> value r))
    end
    else if op = op_dict then begin
      let n = i32 r in
      Dict
        (List.init n (fun _ ->
             let k = value r in
             let v = value r in
             (k, v)))
    end
    else if op = op_ndarray then begin
      let dtype = dtype_of_code (u8 r) in
      let ndim = u8 r in
      let shape = Array.init ndim (fun _ -> i32 r) in
      let data = payload r (u8 r) in
      if Buf.length data <> shape_bytes shape dtype then
        raise (Corrupt "ndarray payload size mismatch");
      Ndarray { shape; dtype; data }
    end
    else raise (Corrupt (Printf.sprintf "unknown opcode 0x%02x" op))
end

let loads ?(buffers = []) src =
  let r = Reader.create src buffers in
  let v = Reader.value r in
  if Reader.u8 r <> op_stop then raise (Corrupt "missing stop opcode");
  v

(* --- introspection --- *)

let rec equal a b =
  match (a, b) with
  | None_, None_ -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> Int64.equal x y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Str x, Str y -> String.equal x y
  | Bytes x, Bytes y -> Buf.equal x y
  | List x, List y | Tuple x, Tuple y ->
      List.length x = List.length y && List.for_all2 equal x y
  | Dict x, Dict y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> equal k1 k2 && equal v1 v2) x y
  | Ndarray x, Ndarray y ->
      x.shape = y.shape && x.dtype = y.dtype && Buf.equal x.data y.data
  | ( (None_ | Bool _ | Int _ | Float _ | Str _ | Bytes _ | List _ | Tuple _
      | Dict _ | Ndarray _), _ ) ->
      false

let rec visit_count = function
  | None_ | Bool _ | Int _ | Float _ | Str _ | Bytes _ | Ndarray _ -> 1
  | List items | Tuple items ->
      List.fold_left (fun acc v -> acc + visit_count v) 1 items
  | Dict pairs ->
      List.fold_left
        (fun acc (k, v) -> acc + visit_count k + visit_count v)
        1 pairs

let rec payload_bytes = function
  | None_ | Bool _ | Int _ | Float _ | Str _ -> 0
  | Bytes b -> Buf.length b
  | Ndarray a -> Buf.length a.data
  | List items | Tuple items ->
      List.fold_left (fun acc v -> acc + payload_bytes v) 0 items
  | Dict pairs ->
      List.fold_left
        (fun acc (k, v) -> acc + payload_bytes k + payload_bytes v)
        0 pairs

let rec pp ppf = function
  | None_ -> Format.pp_print_string ppf "None"
  | Bool b -> Format.pp_print_bool ppf b
  | Int v -> Format.fprintf ppf "%Ld" v
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Bytes b -> Format.fprintf ppf "bytes[%d]" (Buf.length b)
  | List items ->
      Format.fprintf ppf "[@[<hov>%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
        items
  | Tuple items ->
      Format.fprintf ppf "(@[<hov>%a@])"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
        items
  | Dict pairs ->
      let pp_pair ppf (k, v) = Format.fprintf ppf "%a: %a" pp k pp v in
      Format.fprintf ppf "{@[<hov>%a@]}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_pair)
        pairs
  | Ndarray a ->
      Format.fprintf ppf "ndarray(shape=[%s], %s)"
        (String.concat ";" (Array.to_list (Array.map string_of_int a.shape)))
        (match a.dtype with
        | F64 -> "f64"
        | F32 -> "f32"
        | I64 -> "i64"
        | I32 -> "i32"
        | U8 -> "u8")
