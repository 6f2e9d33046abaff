module Buf = Mpicd_buf.Buf
module Custom = Mpicd.Custom

exception Decode_error of string

(* Writers either inline [buf] payloads (in-band mode) or collect them
   out-of-band, recording only the length. *)
type writer = { w : Buffer.t; mutable oob : Buf.t list option (* rev *) }

type reader = {
  src : Buf.t;
  mutable pos : int;
  mutable buffers : Buf.t list option;  (* None = in-band stream *)
}

type 'a t = {
  write : writer -> 'a -> unit;
  read : reader -> 'a;
  bufs : 'a -> Buf.t list;  (* out-of-band payloads, traversal order *)
}

(* --- low-level io --- *)

let w_u8 w v = Buffer.add_char w.w (Char.chr (v land 0xff))

let w_i64 w v =
  for k = 0 to 7 do
    w_u8 w (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
  done

let w_int w v = w_i64 w (Int64.of_int v)

let r_u8 r =
  if r.pos >= Buf.length r.src then raise (Decode_error "truncated");
  let v = Buf.get_u8 r.src r.pos in
  r.pos <- r.pos + 1;
  v

let r_i64 r =
  let v = ref 0L in
  for k = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (r_u8 r)) (8 * k))
  done;
  !v

let r_int r =
  let v = r_i64 r in
  Int64.to_int v

let r_raw r n =
  if n < 0 || r.pos + n > Buf.length r.src then
    raise (Decode_error "bad length");
  let b = Buf.sub r.src ~pos:r.pos ~len:n in
  r.pos <- r.pos + n;
  b

(* --- primitives --- *)

let unit =
  { write = (fun _ () -> ()); read = (fun _ -> ()); bufs = (fun () -> []) }

let bool =
  {
    write = (fun w b -> w_u8 w (if b then 1 else 0));
    read =
      (fun r ->
        match r_u8 r with
        | 0 -> false
        | 1 -> true
        | v -> raise (Decode_error (Printf.sprintf "bad bool %d" v)));
    bufs = (fun _ -> []);
  }

let int = { write = w_int; read = r_int; bufs = (fun _ -> []) }

let float =
  {
    write = (fun w f -> w_i64 w (Int64.bits_of_float f));
    read = (fun r -> Int64.float_of_bits (r_i64 r));
    bufs = (fun _ -> []);
  }

let string =
  {
    write =
      (fun w s ->
        w_int w (String.length s);
        Buffer.add_string w.w s);
    read =
      (fun r ->
        let n = r_int r in
        Buf.to_string (r_raw r n));
    bufs = (fun _ -> []);
  }

let buf =
  {
    write =
      (fun w b ->
        w_int w (Buf.length b);
        match w.oob with
        | Some acc -> w.oob <- Some (b :: acc)
        | None -> Buffer.add_string w.w (Buf.to_string b));
    read =
      (fun r ->
        let n = r_int r in
        match r.buffers with
        | None -> Buf.copy (r_raw r n)
        | Some [] -> raise (Decode_error "missing out-of-band buffer")
        | Some (b :: rest) ->
            if Buf.length b <> n then
              raise
                (Decode_error
                   (Printf.sprintf "out-of-band buffer length %d, expected %d"
                      (Buf.length b) n));
            r.buffers <- Some rest;
            b);
    bufs = (fun b -> [ b ]);
  }

(* --- combinators --- *)

let pair a b =
  {
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
    bufs = (fun (x, y) -> a.bufs x @ b.bufs y);
  }

let triple a b c =
  {
    write =
      (fun w (x, y, z) ->
        a.write w x;
        b.write w y;
        c.write w z);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        let z = c.read r in
        (x, y, z));
    bufs = (fun (x, y, z) -> a.bufs x @ b.bufs y @ c.bufs z);
  }

let list elt =
  {
    write =
      (fun w xs ->
        w_int w (List.length xs);
        List.iter (elt.write w) xs);
    read =
      (fun r ->
        let n = r_int r in
        if n < 0 then raise (Decode_error "negative list length");
        List.init n (fun _ -> elt.read r));
    bufs = (fun xs -> List.concat_map elt.bufs xs);
  }

let array elt =
  {
    write =
      (fun w xs ->
        w_int w (Array.length xs);
        Array.iter (elt.write w) xs);
    read =
      (fun r ->
        let n = r_int r in
        if n < 0 then raise (Decode_error "negative array length");
        Array.init n (fun _ -> elt.read r));
    bufs = (fun xs -> Array.to_list xs |> List.concat_map elt.bufs);
  }

let option elt =
  {
    write =
      (fun w -> function
        | None -> w_u8 w 0
        | Some v ->
            w_u8 w 1;
            elt.write w v);
    read =
      (fun r ->
        match r_u8 r with
        | 0 -> None
        | 1 -> Some (elt.read r)
        | v -> raise (Decode_error (Printf.sprintf "bad option tag %d" v)));
    bufs = (function None -> [] | Some v -> elt.bufs v);
  }

let result ~ok ~error =
  {
    write =
      (fun w -> function
        | Ok v ->
            w_u8 w 0;
            ok.write w v
        | Error e ->
            w_u8 w 1;
            error.write w e);
    read =
      (fun r ->
        match r_u8 r with
        | 0 -> Ok (ok.read r)
        | 1 -> Error (error.read r)
        | v -> raise (Decode_error (Printf.sprintf "bad result tag %d" v)));
    bufs = (function Ok v -> ok.bufs v | Error e -> error.bufs e);
  }

let map project inject repr =
  {
    write = (fun w v -> repr.write w (project v));
    read = (fun r -> inject (repr.read r));
    bufs = (fun v -> repr.bufs (project v));
  }

let fix f =
  let rec self =
    {
      write = (fun w v -> (Lazy.force knot).write w v);
      read = (fun r -> (Lazy.force knot).read r);
      bufs = (fun v -> (Lazy.force knot).bufs v);
    }
  and knot = lazy (f self) in
  self

(* --- codecs --- *)

let encode_with ~oob schema v =
  let w = { w = Buffer.create 64; oob = (if oob then Some [] else None) } in
  schema.write w v;
  ( Buf.of_string (Buffer.contents w.w),
    match w.oob with None -> [] | Some acc -> List.rev acc )

let encode schema v = fst (encode_with ~oob:false schema v)
let encode_oob schema v = encode_with ~oob:true schema v
let encoded_size schema v = Buf.length (encode schema v)
let oob_buffers schema v = schema.bufs v

let finish_read r v =
  if r.pos <> Buf.length r.src then raise (Decode_error "trailing bytes");
  (match r.buffers with
  | Some (_ :: _) -> raise (Decode_error "unused out-of-band buffers")
  | _ -> ());
  v

let decode schema src =
  let r = { src; pos = 0; buffers = None } in
  finish_read r (schema.read r)

let decode_oob schema src ~buffers =
  let r = { src; pos = 0; buffers = Some buffers } in
  finish_read r (schema.read r)

(* --- custom datatype derivation --- *)

(* Shared header-pack plumbing: the state carries the header buffer;
   pack copies out of it, unpack fills it and counts progress. *)
type 'a cdt_state = {
  header : Buf.t;
  mutable received : int;
  regions : Buf.t array;
}

let guard f = try f () with Decode_error _ -> raise (Custom.Error 1)

let to_custom (schema : 'a t) : 'a Custom.t =
  Custom.create
    {
      state =
        (fun v ~count:_ ->
          let header, oob = encode_oob schema v in
          { header; received = 0; regions = Array.of_list oob });
      state_free = ignore;
      query = (fun st _ ~count:_ -> Buf.length st.header);
      pack =
        (fun st _ ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (Buf.length st.header - offset) in
          Buf.blit ~src:st.header ~src_pos:offset ~dst ~dst_pos:0 ~len;
          len);
      unpack =
        (fun st v ~count:_ ~offset ~src ->
          Buf.blit ~src ~src_pos:0 ~dst:st.header ~dst_pos:offset
            ~len:(Buf.length src);
          st.received <- st.received + Buf.length src;
          if st.received >= Buf.length st.header then
            (* full header: verify it decodes against our regions *)
            guard (fun () ->
                ignore
                  (decode_oob schema st.header
                     ~buffers:(Array.to_list (Array.map Fun.id st.regions)));
                ignore v));
      region_count = Some (fun st _ ~count:_ -> Array.length st.regions);
      regions = Some (fun st _ ~count:_ -> Buf.Iov.of_array st.regions);
    }

let receive_into (schema : 'a t) (_cell : 'a ref) : 'a ref Custom.t =
  Custom.create
    {
      state =
        (fun r ~count:_ ->
          let header, oob = encode_oob schema !r in
          { header; received = 0; regions = Array.of_list oob });
      state_free = ignore;
      query = (fun st _ ~count:_ -> Buf.length st.header);
      pack =
        (fun st _ ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (Buf.length st.header - offset) in
          Buf.blit ~src:st.header ~src_pos:offset ~dst ~dst_pos:0 ~len;
          len);
      unpack =
        (fun st r ~count:_ ~offset ~src ->
          Buf.blit ~src ~src_pos:0 ~dst:st.header ~dst_pos:offset
            ~len:(Buf.length src);
          st.received <- st.received + Buf.length src;
          if st.received >= Buf.length st.header then
            guard (fun () ->
                r :=
                  decode_oob schema st.header
                    ~buffers:(Array.to_list st.regions)));
      region_count = Some (fun st _ ~count:_ -> Array.length st.regions);
      regions = Some (fun st _ ~count:_ -> Buf.Iov.of_array st.regions);
    }
