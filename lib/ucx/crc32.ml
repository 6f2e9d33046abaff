module Buf = Mpicd_buf.Buf

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

(* [pos > length - len] rather than [pos + len > length]: the sum
   overflows for [pos] near [max_int] and would pass the check. *)
let digest_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Buf.length b - len then
    invalid_arg "Crc32.digest_sub";
  let table = Lazy.force table in
  let crc = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      (Int32.to_int !crc lxor Buf.get_u8 b i) land 0xff
    in
    crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int32.logxor !crc 0xFFFFFFFFl

let digest b = digest_sub b ~pos:0 ~len:(Buf.length b)
