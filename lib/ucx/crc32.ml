module Buf = Mpicd_buf.Buf

external get64 : Buf.bigstring -> int -> int64 = "%caml_bigstring_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Slicing-by-8: [t.(k).(n)] is the CRC register after byte [n] and
   then [k] zero bytes, so eight lookups fold one 8-byte word.  The
   32-bit values live in native ints, unboxed. *)
let t =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let t = Array.make 8 t0 in
  for k = 1 to 7 do
    t.(k) <- Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xff)) t.(k - 1)
  done;
  t

(* [pos > length - len] rather than [pos + len > length]: the sum
   overflows for [pos] near [max_int] and would pass the check. *)
let digest_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Buf.length b - len then
    invalid_arg "Crc32.digest_sub";
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let t4 = t.(4) and t5 = t.(5) and t6 = t.(6) and t7 = t.(7) in
  let base = b.Buf.base and stop = b.Buf.off + pos + len in
  let crc = ref 0xFFFFFFFF and i = ref (b.Buf.off + pos) in
  while !i <= stop - 8 do
    let w = get64 base !i in
    let w = if Sys.big_endian then bswap64 w else w in
    let lo = Int64.to_int w land 0xFFFFFFFF lxor !crc in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    crc :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    let byte = Char.code (Bigarray.Array1.unsafe_get base !i) in
    crc := Array.unsafe_get t0 ((!crc lxor byte) land 0xff) lxor (!crc lsr 8);
    incr i
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest b = digest_sub b ~pos:0 ~len:(Buf.length b)
