module Buf = Mpicd_buf.Buf

type table = {
  offs : int array;  (* slab offset per block *)
  lens : int array;
  prefix : int array;  (* prefix.(i) = packed offset of block i *)
  total : int;
}

type t = table Lazy.t

let table_of_list blocks =
  let n = List.length blocks in
  let offs = Array.make n 0 and lens = Array.make n 0 in
  let prefix = Array.make n 0 in
  let acc = ref 0 in
  List.iteri
    (fun i (o, l) ->
      if l < 0 || o < 0 then invalid_arg "Blocks.of_list: negative block";
      offs.(i) <- o;
      lens.(i) <- l;
      prefix.(i) <- !acc;
      acc := !acc + l)
    blocks;
  { offs; lens; prefix; total = !acc }

let of_list blocks = Lazy.from_val (table_of_list blocks)
let defer f = lazy (table_of_list (f ()))

let checked b ~check =
  lazy
    (let t = Lazy.force b in
     check t.total;
     t)

let[@inline] table (b : t) = Lazy.force b
let total b = (table b).total
let count b = Array.length (table b).offs

(* Largest i with prefix.(i) <= pos. *)
let find_block (t : table) pos =
  let lo = ref 0 and hi = ref (Array.length t.prefix - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.prefix.(mid) <= pos then lo := mid else hi := mid - 1
  done;
  !lo

let pack_range b ~base ~offset ~dst =
  let t = table b in
  if offset >= t.total then 0
  else begin
    let want = min (Buf.length dst) (t.total - offset) in
    let produced = ref 0 in
    let i = ref (find_block t offset) in
    while !produced < want do
      let within = offset + !produced - t.prefix.(!i) in
      let n = min (want - !produced) (t.lens.(!i) - within) in
      Buf.blit ~src:base ~src_pos:(t.offs.(!i) + within) ~dst ~dst_pos:!produced
        ~len:n;
      produced := !produced + n;
      incr i
    done;
    want
  end

let unpack_range b ~base ~offset ~src =
  let t = table b in
  if offset >= t.total then ()
  else begin
    let want = min (Buf.length src) (t.total - offset) in
    let consumed = ref 0 in
    let i = ref (find_block t offset) in
    while !consumed < want do
      let within = offset + !consumed - t.prefix.(!i) in
      let n = min (want - !consumed) (t.lens.(!i) - within) in
      Buf.blit ~src ~src_pos:!consumed ~dst:base
        ~dst_pos:(t.offs.(!i) + within) ~len:n;
      consumed := !consumed + n;
      incr i
    done
  end

let equal_typed blocks a b =
  let t = table blocks in
  let ok = ref true in
  for i = 0 to Array.length t.offs - 1 do
    if
      not
        (Buf.equal
           (Buf.sub a ~pos:t.offs.(i) ~len:t.lens.(i))
           (Buf.sub b ~pos:t.offs.(i) ~len:t.lens.(i)))
    then ok := false
  done;
  !ok

let iter b ~f =
  let t = table b in
  for i = 0 to Array.length t.offs - 1 do
    f ~off:t.offs.(i) ~len:t.lens.(i)
  done
