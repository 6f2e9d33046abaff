type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { base : bigstring; off : int; len : int }

let fresh_count = ref 0
let fresh_buffers () = !fresh_count

(* Uninitialised storage, for callers that overwrite every byte. *)
let alloc n =
  incr fresh_count;
  { base = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n; off = 0; len = n }

let create n =
  if n < 0 then invalid_arg "Buf.create: negative length";
  let t = alloc n in
  Bigarray.Array1.fill t.base '\000';
  t

let of_bigstring base = { base; off = 0; len = Bigarray.Array1.dim base }

let length t = t.len

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.len - len then
    invalid_arg
      (Printf.sprintf "Buf.sub: pos=%d len=%d out of range (buffer len %d)"
         pos len t.len);
  { base = t.base; off = t.off + pos; len }

let is_empty t = t.len = 0

let out_of_range t i n =
  invalid_arg
    (Printf.sprintf "Buf: offset %d (+%d) out of range (len %d)" i n t.len)

(* [i > t.len - n] rather than [i + n > t.len]: the sum overflows for
   offsets near [max_int] and would pass the check.  With [n >= 0]
   checked first the difference cannot overflow. *)
let check t i n = if n < 0 || i < 0 || i > t.len - n then out_of_range t i n

let get t i =
  check t i 1;
  Bigarray.Array1.unsafe_get t.base (t.off + i)

let set t i c =
  check t i 1;
  Bigarray.Array1.unsafe_set t.base (t.off + i) c

let get_u8 t i = Char.code (get t i)
let set_u8 t i v = set t i (Char.chr (v land 0xff))

(* Word-sized loads and stores: the compiler turns these into single
   unaligned host-order memory accesses.  Bounds are checked by [check]
   first; the stored layout is little-endian on every host, so
   big-endian hosts swap bytes. *)
external unsafe_get32 : bigstring -> int -> int32 = "%caml_bigstring_get32u"
external unsafe_set32 : bigstring -> int -> int32 -> unit = "%caml_bigstring_set32u"
external unsafe_get64 : bigstring -> int -> int64 = "%caml_bigstring_get64u"
external unsafe_set64 : bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let get_i32 t i =
  check t i 4;
  let v = unsafe_get32 t.base (t.off + i) in
  if Sys.big_endian then bswap32 v else v

let set_i32 t i v =
  check t i 4;
  unsafe_set32 t.base (t.off + i) (if Sys.big_endian then bswap32 v else v)

let get_i64 t i =
  check t i 8;
  let v = unsafe_get64 t.base (t.off + i) in
  if Sys.big_endian then bswap64 v else v

let set_i64 t i v =
  check t i 8;
  unsafe_set64 t.base (t.off + i) (if Sys.big_endian then bswap64 v else v)

let get_f64 t i = Int64.float_of_bits (get_i64 t i)
let set_f64 t i v = set_i64 t i (Int64.bits_of_float v)
let get_f32 t i = Int32.float_of_bits (get_i32 t i)
let set_f32 t i v = set_i32 t i (Int32.bits_of_float v)

(* The raw 32-bit word as an immediate: nothing is boxed, and no float
   conversion can quiet a signalling NaN. *)
let get_u32 t i =
  check t i 4;
  let v = unsafe_get32 t.base (t.off + i) in
  Int32.to_int (if Sys.big_endian then bswap32 v else v) land 0xffff_ffff

let set_u32 t i v =
  check t i 4;
  let v = Int32.of_int v in
  unsafe_set32 t.base (t.off + i) (if Sys.big_endian then bswap32 v else v)

(* The byte kernels, in C (buf_stubs.c): each is one libc call over a
   range checked here, so none allocates, and a copy between views of
   one bigstring may overlap either way. *)
external memmove : bigstring -> int -> bigstring -> int -> int -> unit
  = "mpicd_buf_memmove"
[@@noalloc]

external memeq : bigstring -> int -> bigstring -> int -> int -> bool = "mpicd_buf_memeq"
[@@noalloc]

external memset : bigstring -> int -> int -> char -> unit = "mpicd_buf_memset" [@@noalloc]

external memcpy_of_string : string -> int -> bigstring -> int -> int -> unit
  = "mpicd_buf_of_string"
[@@noalloc]

external memcpy_to_bytes : bigstring -> int -> Bytes.t -> int -> int -> unit
  = "mpicd_buf_to_bytes"
[@@noalloc]

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  check src src_pos len;
  check dst dst_pos len;
  memmove src.base (src.off + src_pos) dst.base (dst.off + dst_pos) len

let fill t c = memset t.base t.off t.len c

(* Each round copies everything written so far, so a buffer of [n]
   bytes takes O(log (n / period)) block copies. *)
let repeat_prefix t ~period =
  if period <= 0 then invalid_arg "Buf.repeat_prefix: period must be positive";
  let filled = ref (min period t.len) in
  while !filled < t.len do
    let n = min !filled (t.len - !filled) in
    blit ~src:t ~src_pos:0 ~dst:t ~dst_pos:!filled ~len:n;
    filled := !filled + n
  done

let copy t =
  let dst = alloc t.len in
  blit ~src:t ~src_pos:0 ~dst ~dst_pos:0 ~len:t.len;
  dst

let equal a b = a.len = b.len && memeq a.base a.off b.base b.off a.len

let blit_from_string s ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || src_pos > String.length s - len then
    invalid_arg "Buf.blit_from_string: source range";
  check dst dst_pos len;
  memcpy_of_string s src_pos dst.base (dst.off + dst_pos) len

let blit_to_bytes ~src ~src_pos ~dst ~dst_pos ~len =
  check src src_pos len;
  if dst_pos < 0 || dst_pos > Bytes.length dst - len then
    invalid_arg "Buf.blit_to_bytes: destination range";
  memcpy_to_bytes src.base (src.off + src_pos) dst dst_pos len

(* Float arrays move as little-endian binary64 words: one range check
   per call, then a word loop with no per-element boxing (a call to
   [set_f64]/[get_f64] boxes its float and int64 without flambda).  The
   byte-swap decision is hoisted out of the loop. *)
let blit_from_floats (a : float array) ~src_pos ~dst ~dst_pos ~len =
  if len < 0 || src_pos < 0 || src_pos > Array.length a - len then
    invalid_arg "Buf.blit_from_floats: source range";
  check dst dst_pos (8 * len);
  let d = dst.base and d_o = dst.off + dst_pos in
  if Sys.big_endian then
    for i = 0 to len - 1 do
      unsafe_set64 d (d_o + (8 * i))
        (bswap64 (Int64.bits_of_float (Array.unsafe_get a (src_pos + i))))
    done
  else
    for i = 0 to len - 1 do
      unsafe_set64 d (d_o + (8 * i))
        (Int64.bits_of_float (Array.unsafe_get a (src_pos + i)))
    done

let blit_to_floats ~src ~src_pos ~(dst : float array) ~dst_pos ~len =
  if len < 0 || dst_pos < 0 || dst_pos > Array.length dst - len then
    invalid_arg "Buf.blit_to_floats: destination range";
  check src src_pos (8 * len);
  let s = src.base and so = src.off + src_pos in
  if Sys.big_endian then
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_pos + i)
        (Int64.float_of_bits (bswap64 (unsafe_get64 s (so + (8 * i)))))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_pos + i)
        (Int64.float_of_bits (unsafe_get64 s (so + (8 * i))))
    done

let of_string s =
  let n = String.length s in
  let t = alloc n in
  memcpy_of_string s 0 t.base 0 n;
  t

let to_string t =
  let b = Bytes.create t.len in
  memcpy_to_bytes t.base t.off b 0 t.len;
  Bytes.unsafe_to_string b

let concat parts =
  let total = List.fold_left (fun acc p -> acc + p.len) 0 parts in
  let dst = alloc total in
  let pos = ref 0 in
  List.iter
    (fun p ->
      blit ~src:p ~src_pos:0 ~dst ~dst_pos:!pos ~len:p.len;
      pos := !pos + p.len)
    parts;
  dst

let hexdump ?(max_bytes = 256) t =
  let n = min t.len max_bytes in
  let buf = Buffer.create (n * 4) in
  for row = 0 to (n - 1) / 16 do
    Buffer.add_string buf (Printf.sprintf "%08x  " (row * 16));
    for col = 0 to 15 do
      let i = (row * 16) + col in
      if i < n then Buffer.add_string buf (Printf.sprintf "%02x " (get_u8 t i))
      else Buffer.add_string buf "   "
    done;
    Buffer.add_char buf ' ';
    for col = 0 to 15 do
      let i = (row * 16) + col in
      if i < n then begin
        let c = get t i in
        Buffer.add_char buf (if c >= ' ' && c <= '~' then c else '.')
      end
    done;
    Buffer.add_char buf '\n'
  done;
  if t.len > max_bytes then
    Buffer.add_string buf (Printf.sprintf "... (%d more bytes)\n" (t.len - max_bytes));
  Buffer.contents buf

let same_memory a b = a.base == b.base && a.off = b.off && a.len = b.len

let overlaps a b =
  a.base == b.base && a.len > 0 && b.len > 0
  && a.off < b.off + b.len
  && b.off < a.off + a.len

(* --- recycling ---

   A buffer's bigarray bytes are off-heap, but OCaml charges them to the
   major GC's budget, so a buffer allocated and dropped per message
   paces major collections by bytes, not by live data.  A pool keeps
   whole buffers that their one user gave back, in exact-length
   classes, and hands them out again zeroed.  It accepts only the very
   buffers it lent: each class remembers its last [max_class_buffers]
   loans by physical identity, so a view (a new record, even over the
   same bytes), a buffer of another class, a buffer given twice or a
   buffer the pool never lent is ignored. *)

module Pool = struct
  type buf = t

  let fresh = create
  let max_class_buffers = 64
  let max_bytes = 32 * 1024 * 1024
  let max_classes = 64
  let empty = of_bigstring (Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0)

  type cls = {
    len : int;
    free : buf array;  (* a stack of [nfree] buffers ready to lend *)
    mutable nfree : int;
    lent : buf array;  (* ring of loans; [empty] marks a returned slot *)
    mutable next_loan : int;
  }

  type t = {
    mutable classes : cls list;  (* newest first; none until the first take *)
    mutable retained : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { classes = []; retained = 0; hits = 0; misses = 0 }

  (* What [find_class] returns when no class has the length: a lookup
     allocates no option. *)
  let no_class = { len = -1; free = [||]; nfree = 0; lent = [||]; next_loan = 0 }

  let rec find_class n = function
    | [] -> no_class
    | c :: rest -> if c.len = n then c else find_class n rest

  (* The oldest class goes when a new one would exceed [max_classes];
     its free buffers stop counting as retained. *)
  let add_class p n =
    let c =
      {
        len = n;
        free = Array.make max_class_buffers empty;
        nfree = 0;
        lent = Array.make max_class_buffers empty;
        next_loan = 0;
      }
    in
    p.classes <- c :: p.classes;
    if List.length p.classes > max_classes then
      p.classes <-
        List.filteri
          (fun i c ->
            i < max_classes
            || begin
                 p.retained <- p.retained - (c.nfree * c.len);
                 false
               end)
          p.classes;
    c

  let take p n =
    if n < 0 then invalid_arg "Buf.Pool.take: negative length";
    let c =
      let c = find_class n p.classes in
      if c != no_class then c else add_class p n
    in
    let b =
      if c.nfree > 0 then begin
        c.nfree <- c.nfree - 1;
        let b = c.free.(c.nfree) in
        c.free.(c.nfree) <- empty;
        p.retained <- p.retained - n;
        p.hits <- p.hits + 1;
        fill b '\000';
        b
      end
      else begin
        p.misses <- p.misses + 1;
        fresh n
      end
    in
    (* a full ring forgets its oldest loan, which can then not return *)
    c.lent.(c.next_loan) <- b;
    c.next_loan <- (c.next_loan + 1) mod max_class_buffers;
    b

  (* Clear the ring slot holding [b] itself (not a view of the same
     bytes, which is a different record); newest loans first, from the
     [k]th.  A plain recursive function: a local one would allocate its
     closure on every give. *)
  let rec return_loan c (b : buf) k =
    k < max_class_buffers
    &&
    let i = (c.next_loan - 1 - k + max_class_buffers) mod max_class_buffers in
    if c.lent.(i) == b then begin
      c.lent.(i) <- empty;
      true
    end
    else return_loan c b (k + 1)

  let give p (b : buf) =
    let c = find_class b.len p.classes in
    if c != no_class && return_loan c b 0 then
      if c.nfree < max_class_buffers && p.retained + b.len <= max_bytes then begin
        c.free.(c.nfree) <- b;
        c.nfree <- c.nfree + 1;
        p.retained <- p.retained + b.len
      end

  let retained_bytes p = p.retained
  let hits p = p.hits
  let misses p = p.misses
end

module Slabs = struct
  type buf = t

  let chunk_bytes = 65_536

  (* Class [c] carves [2^c]-byte slots out of chunks of up to
     [chunk_bytes], and stacks the slots given back as (base, offset)
     pairs in two arrays, so a free slot costs two words. *)
  type cls = {
    mutable bases : bigstring array;
    mutable offs : int array;
    mutable nfree : int;
    mutable chunk : bigstring;
    mutable carved : int;  (* bytes of [chunk] handed out *)
    mutable slots : int;  (* slots carved from every chunk so far *)
  }

  type t = { mutable classes : cls array }

  let create () = { classes = [||] }
  let empty = of_bigstring (Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0)

  let rec size_class len c = if 1 lsl c >= len then c else size_class len (c + 1)

  let cls s len =
    let c = size_class len 0 in
    let n = Array.length s.classes in
    if c >= n then
      s.classes <-
        Array.append s.classes
          (Array.init (c + 1 - n) (fun _ ->
               { bases = [||]; offs = [||]; nfree = 0; chunk = empty.base; carved = 0;
                 slots = 0 }));
    s.classes.(c)

  let take s len =
    if len <= 0 then empty
    else begin
      let k = cls s len in
      if k.nfree > 0 then begin
        k.nfree <- k.nfree - 1;
        { base = k.bases.(k.nfree); off = k.offs.(k.nfree); len }
      end
      else begin
        let size = 1 lsl size_class len 0 in
        let dim = Bigarray.Array1.dim k.chunk in
        if k.carved + size > dim then begin
          (* chunks double from one slot, so a small world stays small *)
          k.chunk <-
            Bigarray.Array1.create Bigarray.char Bigarray.c_layout
              (max size (min chunk_bytes (2 * dim)));
          k.carved <- 0
        end;
        let off = k.carved in
        k.carved <- off + size;
        k.slots <- k.slots + 1;
        { base = k.chunk; off; len }
      end
    end

  let give s (b : buf) =
    if b.len > 0 then begin
      let k = cls s b.len in
      let n = k.nfree in
      if n = Array.length k.offs then begin
        k.bases <- Array.append k.bases (Array.make (max 8 n) b.base);
        k.offs <- Array.append k.offs (Array.make (max 8 n) 0)
      end;
      k.bases.(n) <- b.base;
      k.offs.(n) <- b.off;
      k.nfree <- n + 1
    end

  let free_slots s = Array.fold_left (fun a k -> a + k.nfree) 0 s.classes
  let carved_slots s = Array.fold_left (fun a k -> a + k.slots) 0 s.classes
end

module Iov = struct
  type buf = t

  type table = {
    offs : int array;
    lens : int array;
    t_total : int;
    t_end : int;  (* one past the greatest byte an entry covers *)
  }

  (* A table's entries are offsets into one base; [Cons] puts one view
     in front of another list, the way a custom operation's packed
     part precedes its regions. *)
  type t =
    | Views of { views : buf array; v_total : int }
    | Table of { tbase : buf; table : table }
    | Cons of { head : buf; rest : t; c_count : int; c_total : int }

  let table ~offs ~lens =
    let n = Array.length offs in
    if Array.length lens <> n then invalid_arg "Buf.Iov.table: offs and lens differ in length";
    let total = ref 0 and stop = ref 0 in
    for i = 0 to n - 1 do
      let o = offs.(i) and l = lens.(i) in
      if o < 0 || l < 0 then invalid_arg "Buf.Iov.table: negative offset or length";
      total := !total + l;
      stop := max !stop (o + l)
    done;
    { offs; lens; t_total = !total; t_end = !stop }

  let of_array (views : buf array) =
    let total = ref 0 in
    for i = 0 to Array.length views - 1 do
      total := !total + (Array.unsafe_get views i).len
    done;
    Views { views; v_total = !total }

  let empty = of_array [||]

  (* [Array.of_list] allocates a closure per call. *)
  let rec fill_from a i = function
    | [] -> ()
    | b :: rest ->
        Array.unsafe_set a i b;
        fill_from a (i + 1) rest

  let of_list = function
    | [] -> empty
    | b :: _ as l ->
        let a = Array.make (List.length l) b in
        fill_from a 0 l;
        of_array a

  let of_table (b : buf) table =
    if table.t_end > b.len then invalid_arg "Buf.Iov.of_table: an entry does not fit the buffer";
    Table { tbase = b; table }

  let count = function
    | Views v -> Array.length v.views
    | Table t -> Array.length t.table.lens
    | Cons c -> c.c_count

  let total = function
    | Views v -> v.v_total
    | Table t -> t.table.t_total
    | Cons c -> c.c_total

  let cons (head : buf) rest =
    Cons { head; rest; c_count = 1 + count rest; c_total = head.len + total rest }

  let rec base t i =
    match t with
    | Views v -> v.views.(i).base
    | Table t ->
        ignore t.table.lens.(i) (* the index check *);
        t.tbase.base
    | Cons c -> if i = 0 then c.head.base else base c.rest (i - 1)

  let rec off t i =
    match t with
    | Views v -> v.views.(i).off
    | Table t -> t.tbase.off + t.table.offs.(i)
    | Cons c -> if i = 0 then c.head.off else off c.rest (i - 1)

  let rec len t i =
    match t with
    | Views v -> v.views.(i).len
    | Table t -> t.table.lens.(i)
    | Cons c -> if i = 0 then c.head.len else len c.rest (i - 1)

  let get t i = { base = base t i; off = off t i; len = len t i }

  (* The entries from [i] up to the one returned form a maximal run:
     each after the first shares its predecessor's base and starts
     where it ends.  A table's entries share one base. *)
  let rec run_stop t i =
    match t with
    | Views { views; _ } ->
        let n = Array.length views and first = views.(i) in
        let j = ref (i + 1) and stop = ref (first.off + first.len) in
        while
          !j < n
          &&
          let v = Array.unsafe_get views !j in
          v.base == first.base && v.off = !stop
        do
          stop := !stop + (Array.unsafe_get views !j).len;
          incr j
        done;
        !j
    | Table { table = { offs; lens; _ }; _ } ->
        let n = Array.length lens in
        let j = ref (i + 1) and stop = ref (offs.(i) + lens.(i)) in
        while !j < n && Array.unsafe_get offs !j = !stop do
          stop := !stop + Array.unsafe_get lens !j;
          incr j
        done;
        !j
    | Cons { head; rest; _ } ->
        if i > 0 then 1 + run_stop rest (i - 1)
        else if count rest > 0 && base rest 0 == head.base && off rest 0 = head.off + head.len
        then 1 + run_stop rest 0
        else 1

  let no_base = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

  let check_run b pos stop =
    if pos < 0 || stop > Bigarray.Array1.dim b then
      invalid_arg "Buf.Iov.blit: an entry lies outside its buffer"

  (* Both lists are walked run by run: [si]/[di] is the next entry of a
     side, and its current run covers [sp, se) of [sb] (resp. [dp, de)
     of [db]).  Each stretch that lies in one run on both sides is one
     copy. *)
  let blit ~src ~dst =
    let left = ref (total src) in
    if !left > total dst then invalid_arg "Buf.Iov.blit: payload exceeds receive regions";
    let si = ref 0 and sb = ref no_base and sp = ref 0 and se = ref 0 in
    let di = ref 0 and db = ref no_base and dp = ref 0 and de = ref 0 in
    while !left > 0 do
      if !sp = !se then begin
        let j = run_stop src !si in
        sb := base src !si;
        sp := off src !si;
        se := off src (j - 1) + len src (j - 1);
        si := j;
        check_run !sb !sp !se
      end;
      if !dp = !de then begin
        let j = run_stop dst !di in
        db := base dst !di;
        dp := off dst !di;
        de := off dst (j - 1) + len dst (j - 1);
        di := j;
        check_run !db !dp !de
      end;
      let n = min !left (min (!se - !sp) (!de - !dp)) in
      memmove !sb !sp !db !dp n;
      sp := !sp + n;
      dp := !dp + n;
      left := !left - n
    done

  let gather t ~dst = blit ~src:t ~dst:(of_array [| dst |])
end
