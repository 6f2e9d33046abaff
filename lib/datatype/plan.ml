(* Compiled pack plans: a datatype flattened once into displacement /
   length / prefix-sum arrays, executed without ever revisiting the
   datatype tree (TEMPI-style canonicalization, Pearson et al.).

   A plan is compiled per *element*; [count] elements tile the typed
   buffer with stride [elem_extent] and the packed stream with stride
   [elem_size], so plan memory is independent of [count].  Fragment
   entry points use binary search over the prefix sums (O(log B)) and a
   stateful cursor makes sequential fragment streams resume in O(1). *)

module Buf = Mpicd_buf.Buf
module Stats = Mpicd_simnet.Stats

type compiled = {
  elem_size : int;  (* packed bytes of one element *)
  elem_extent : int;  (* typed-layout stride between elements *)
  disps : int array;  (* typed byte displacement of block i, element-relative *)
  lens : int array;  (* byte length of block i *)
  prefix : int array;  (* prefix.(i) = packed offset of block i; length B+1 *)
  contiguous : bool;
  lo : int;  (* least element-relative typed offset a block touches *)
  hi : int;  (* one past the greatest; [lo = hi = 0] without blocks *)
  wtyped : int array;
      (* when every block is 8-32 bytes and they take at most
         [max_words]: the element-relative typed offset of each 8-byte
         word that copies them, block by block; else empty *)
  wstream : int array;  (* the packed offset of each such word *)
}

(* A plan copies an element as 8-byte words only when it takes at
   most this many. *)
let max_words = 256

let compile dt =
  let rev_blocks = ref [] and n = ref 0 in
  Datatype.iter_blocks dt ~count:1 ~f:(fun ~disp ~len ->
      rev_blocks := (disp, len) :: !rev_blocks;
      incr n);
  let nb = !n in
  let disps = Array.make nb 0 and lens = Array.make nb 0 in
  let prefix = Array.make (nb + 1) 0 in
  let i = ref (nb - 1) in
  List.iter
    (fun (d, l) ->
      disps.(!i) <- d;
      lens.(!i) <- l;
      decr i)
    !rev_blocks;
  for j = 0 to nb - 1 do
    prefix.(j + 1) <- prefix.(j) + lens.(j)
  done;
  let elem_size = prefix.(nb) in
  let elem_extent = Datatype.extent dt in
  let contiguous =
    elem_size = elem_extent
    && Datatype.lb dt = 0
    && (nb = 0 || (nb = 1 && disps.(0) = 0))
  in
  let lo = ref max_int and hi = ref min_int in
  let small = ref true and nw = ref 0 in
  for j = 0 to nb - 1 do
    lo := min !lo disps.(j);
    hi := max !hi (disps.(j) + lens.(j));
    small := !small && lens.(j) >= 8 && lens.(j) <= 32;
    nw := !nw + ((lens.(j) + 7) / 8)
  done;
  let lo, hi = if nb = 0 then (0, 0) else (!lo, !hi) in
  (* A block of [len] bytes is the words at 0, 8, ... below [len - 8],
     then the one at [len - 8], which may overlap its predecessor.  An
     element of many blocks keeps only its block arrays: its run loop
     is long anyway, and the words would cost 16 bytes each per plan. *)
  let nw = if !small && !nw <= max_words then !nw else 0 in
  let wtyped = Array.make nw 0 and wstream = Array.make nw 0 in
  if nw > 0 then begin
    let w = ref 0 in
    for j = 0 to nb - 1 do
      let k = (lens.(j) + 7) / 8 in
      for i = 0 to k - 1 do
        let o = if i = k - 1 then lens.(j) - 8 else 8 * i in
        wtyped.(!w) <- disps.(j) + o;
        wstream.(!w) <- prefix.(j) + o;
        incr w
      done
    done
  end;
  {
    elem_size;
    elem_extent;
    disps;
    lens;
    prefix;
    contiguous;
    lo;
    hi;
    wtyped;
    wstream;
  }

(* A plan is its compiled arrays, compiled when first forced: [get]
   stores a suspended compile, [build] a compiled record. *)
type t = compiled Lazy.t

let build dt = Lazy.from_val (compile dt)
let[@inline] force (p : t) = Lazy.force p

let size p = (force p).elem_size
let extent p = (force p).elem_extent
let block_count p = Array.length (force p).lens
let is_contiguous p = (force p).contiguous
let packed_size p ~count = count * (force p).elem_size

(* --- memoization cache ---

   Keyed on *physical* equality of the datatype value: building the same
   shape twice compiles twice, but every send/recv/pack of one committed
   datatype value reuses a single plan.  Buckets hash with the bounded
   structural [Hashtbl.hash] (O(1) on deep trees) and resolve with
   [==].  The table is bounded: a workload creating unbounded fresh
   datatypes resets it rather than leaking. *)

let cache : (int, (Datatype.t * t) list) Hashtbl.t = Hashtbl.create 64
let cache_lock = Mutex.create ()
let cache_entries = ref 0
let max_cache_entries = 1024
let hits = ref 0
let misses = ref 0

let clear_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  cache_entries := 0;
  hits := 0;
  misses := 0;
  Mutex.unlock cache_lock

let cache_hits () = !hits
let cache_misses () = !misses

let get ?stats dt =
  let h = Hashtbl.hash dt in
  Mutex.lock cache_lock;
  let found =
    match Hashtbl.find_opt cache h with
    | None -> None
    | Some l -> List.find_opt (fun (k, _) -> k == dt) l
  in
  let hit, p =
    match found with
    | Some (_, p) ->
        incr hits;
        (true, p)
    | None ->
        incr misses;
        (* compiled on first use, outside the lock *)
        let p = lazy (compile dt) in
        if !cache_entries >= max_cache_entries then begin
          Hashtbl.reset cache;
          cache_entries := 0
        end;
        let bucket = Option.value ~default:[] (Hashtbl.find_opt cache h) in
        Hashtbl.replace cache h ((dt, p) :: bucket);
        incr cache_entries;
        (false, p)
  in
  Mutex.unlock cache_lock;
  (match stats with
  | Some s -> Stats.incr s (if hit then Plan_cache_hits else Plan_cache_misses)
  | None -> ());
  p

(* --- the block copy ---

   Dune's dev profile compiles every library with [-opaque], so a
   [Buf.blit] per block is a real call with two range checks, and most
   plan blocks are only 4-32 bytes.  The copy is therefore inlined here,
   in two shapes:

   - a run of whole elements is checked once: the typed span of its
     first and last element ([lo]/[hi]), the stream window, and that
     typed buffer and stream are distinct bigstrings.  It is then
     copied with no range test ([copy_elems]): as 8-byte words, which
     may overlap, when the plan has them ([wtyped]), else block by
     block;
   - a run that fails the check, and a window's partial first and last
     element, go block by block ([copy_block]): a 4-32 byte block
     between distinct bigstrings moves as words after one range test,
     and every other block (longer, typed buffer and stream cut from
     one bigstring, out of range) goes to [Buf.blit].

   So results, and on a bad range the [Invalid_argument] and the blocks
   written before it, are those of one [Buf.blit] per block. *)

external get32 : Buf.bigstring -> int -> int32 = "%caml_bigstring_get32u"
external set32 : Buf.bigstring -> int -> int32 -> unit = "%caml_bigstring_set32u"
external get64 : Buf.bigstring -> int -> int64 = "%caml_bigstring_get64u"
external set64 : Buf.bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"

(* One in-range block between distinct bigstrings, with no range test:
   4-32 bytes move as two 4-byte or two to four 8-byte words, which may
   overlap; any other length goes to [Buf.blit]. *)
let[@inline] move_block (src : Buf.t) src_pos (dst : Buf.t) dst_pos len =
  if len < 4 || len > 32 then Buf.blit ~src ~src_pos ~dst ~dst_pos ~len
  else begin
    let s = src.base and so = src.off + src_pos in
    let d = dst.base and d_o = dst.off + dst_pos in
    if len < 8 then begin
      set32 d d_o (get32 s so);
      set32 d (d_o + len - 4) (get32 s (so + len - 4))
    end
    else begin
      if len > 16 then begin
        set64 d (d_o + 8) (get64 s (so + 8));
        set64 d (d_o + len - 16) (get64 s (so + len - 16))
      end;
      set64 d d_o (get64 s so);
      set64 d (d_o + len - 8) (get64 s (so + len - 8))
    end
  end

let[@inline] copy_block (src : Buf.t) src_pos (dst : Buf.t) dst_pos len =
  if
    src.base != dst.base && src_pos >= 0 && dst_pos >= 0
    && src_pos <= src.len - len && dst_pos <= dst.len - len
  then move_block src src_pos dst dst_pos len
  else Buf.blit ~src ~src_pos ~dst ~dst_pos ~len

(* Whether elements [first, first + n) may be copied with no per-block
   test, against stream bytes from [pos]: every block of the first and
   the last element (so of all between) lies in [typed], the window
   lies in [stream], and the two are distinct bigstrings. *)
let run_fits p ~typed ~stream ~first ~n ~pos =
  n > 0
  && (typed : Buf.t).base != (stream : Buf.t).base
  &&
  let a = first * p.elem_extent and b = (first + n - 1) * p.elem_extent in
  min a b + p.lo >= 0
  && max a b + p.hi <= typed.len
  && pos >= 0
  && pos <= stream.len - (n * p.elem_size)

(* [n] elements' words from [s] to [d]: element [e]'s word [w] moves
   from [so + e * s_step + s_words.(w)] to the like offset in [d].
   The word arrays have the same length. *)
let move_words s so s_step s_words d d_o d_step d_words ~n =
  let nw = Array.length s_words in
  let so = ref so and d_o = ref d_o in
  for _ = 1 to n do
    for w = 0 to nw - 1 do
      set64 d
        (!d_o + Array.unsafe_get d_words w)
        (get64 s (!so + Array.unsafe_get s_words w))
    done;
    so := !so + s_step;
    d_o := !d_o + d_step
  done

(* --- whole-stream pack/unpack --- *)

let[@inline] record_block stats bytes =
  match stats with
  | None -> ()
  | Some s ->
      Stats.incr s Ddt_blocks_processed;
      Stats.record_copy s bytes

(* Elements [first, first + n) from stream byte [pos].  Without
   [stats], a run that [run_fits] moves as words when the plan has
   them, else block by block with no range test; anything else goes
   block by block through [copy_block].  The element loop indexes
   [lens] and [disps], which have the same length, by
   [i < nb = Array.length lens] without a bounds check. *)
let copy_elems stats p ~pack ~(typed : Buf.t) ~(stream : Buf.t) ~first ~n ~pos =
  let fits =
    match stats with
    | None -> run_fits p ~typed ~stream ~first ~n ~pos
    | Some _ -> false
  in
  if fits && Array.length p.wtyped > 0 then begin
    let t = typed.off + (first * p.elem_extent) and s = stream.off + pos in
    if pack then
      move_words typed.base t p.elem_extent p.wtyped stream.base s p.elem_size
        p.wstream ~n
    else
      move_words stream.base s p.elem_size p.wstream typed.base t p.elem_extent
        p.wtyped ~n
  end
  else begin
    let nb = Array.length p.lens in
    let pos = ref pos in
    for e = first to first + n - 1 do
      let base = e * p.elem_extent in
      for i = 0 to nb - 1 do
        let len = Array.unsafe_get p.lens i in
        let tp = base + Array.unsafe_get p.disps i in
        if fits then
          if pack then move_block typed tp stream !pos len
          else move_block stream !pos typed tp len
        else if pack then copy_block typed tp stream !pos len
        else copy_block stream !pos typed tp len;
        record_block stats len;
        pos := !pos + len
      done
    done
  end

let pack ?stats p ~count ~src ~dst =
  let p = force p in
  copy_elems stats p ~pack:true ~typed:src ~stream:dst ~first:0 ~n:count ~pos:0;
  count * p.elem_size

let unpack ?stats p ~count ~src ~dst =
  copy_elems stats (force p) ~pack:false ~typed:dst ~stream:src ~first:0 ~n:count
    ~pos:0

(* --- fragment entry points --- *)

(* Largest i with prefix.(i) <= r, for 0 <= r < elem_size. *)
let find_block p r =
  let lo = ref 0 and hi = ref (Array.length p.lens - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if p.prefix.(mid) <= r then lo := mid else hi := mid - 1
  done;
  !lo

type cursor = {
  c_plan : compiled;  (* compiled when the cursor is made *)
  mutable c_next : int;  (* packed offset the cursor sits at *)
  mutable c_elem : int;  (* element index of c_next *)
  mutable c_block : int;  (* block index of c_next within the element *)
  mutable c_resumes : int;
  mutable c_reseeks : int;
}

let cursor p =
  {
    c_plan = force p;
    c_next = 0;
    c_elem = 0;
    c_block = 0;
    c_resumes = 0;
    c_reseeks = 0;
  }

let cursor_resumes c = c.c_resumes
let cursor_reseeks c = c.c_reseeks

(* Point the cursor at packed offset [pos]: O(1) when it already sits
   there (the sequential-stream fast path), O(log B) otherwise. *)
let seek cur pos =
  let p = cur.c_plan in
  if pos = cur.c_next then cur.c_resumes <- cur.c_resumes + 1
  else begin
    cur.c_reseeks <- cur.c_reseeks + 1;
    cur.c_next <- pos;
    cur.c_elem <- pos / p.elem_size;
    cur.c_block <- find_block p (pos mod p.elem_size)
  end

(* Shared walk for pack_range/unpack_range: copy the [want] bytes of
   the stream window (the whole of [stream]) from or to the typed
   buffer, starting at byte [within] of (elem, block), and leave the
   cursor, if any, after the window.  [pack] picks the direction.
   Whole elements take a loop that copies every block in full; only a
   window's first and last element walk block by block with a
   partial-block offset.  Both count one [record_block] per (partial)
   block, as the interpreter does. *)
let range_apply stats cur p ~elem ~block ~within ~want ~pack ~typed ~stream =
  let nb = Array.length p.lens in
  let elem = ref elem and block = ref block and within = ref within in
  let done_ = ref 0 in
  while !done_ < want do
    if !block = 0 && !within = 0 && want - !done_ >= p.elem_size then begin
      let whole = (want - !done_) / p.elem_size in
      copy_elems stats p ~pack ~typed ~stream ~first:!elem ~n:whole ~pos:!done_;
      done_ := !done_ + (whole * p.elem_size);
      elem := !elem + whole
    end
    else begin
      (* this element's blocks, the first and the last possibly
         partial: checked once as [run_fits] checks whole elements (the
         element's typed span, the window, distinct bigstrings), else
         block by block *)
      let base = !elem * p.elem_extent in
      let fits =
        typed.base != stream.base
        && base + p.lo >= 0
        && base + p.hi <= typed.len
        && want <= stream.len
      in
      let i = ref !block in
      while !i < nb && !done_ < want do
        let rest = Array.unsafe_get p.lens !i - !within in
        let n = if want - !done_ < rest then want - !done_ else rest in
        let typed_pos = base + Array.unsafe_get p.disps !i + !within in
        if fits then
          if pack then move_block typed typed_pos stream !done_ n
          else move_block stream !done_ typed typed_pos n
        else if pack then copy_block typed typed_pos stream !done_ n
        else copy_block stream !done_ typed typed_pos n;
        record_block stats n;
        done_ := !done_ + n;
        if n = rest then begin
          within := 0;
          incr i
        end
        else within := !within + n
      done;
      if !i = nb then begin
        block := 0;
        incr elem
      end
      else block := !i
    end
  done;
  match cur with
  | Some c ->
      c.c_elem <- !elem;
      c.c_block <- !block
  | None -> ()

(* With a cursor the compiled plan is the cursor's: a fragment stream
   compiles nothing and tests nothing. *)
let range ?stats ?cursor:cur p ~count ~packed_off ~pack ~typed ~stream =
  let p = match cur with Some c -> c.c_plan | None -> force p in
  let total = count * p.elem_size in
  let window = Buf.length stream in
  if packed_off >= total || window <= 0 then 0
  else begin
    let want = min window (total - packed_off) in
    let elem, block =
      match cur with
      | Some c ->
          seek c packed_off;
          (c.c_elem, c.c_block)
      | None ->
          (packed_off / p.elem_size, find_block p (packed_off mod p.elem_size))
    in
    let within = packed_off - (elem * p.elem_size) - p.prefix.(block) in
    range_apply stats cur p ~elem ~block ~within ~want ~pack ~typed ~stream;
    (match cur with Some c -> c.c_next <- packed_off + want | None -> ());
    want
  end

let pack_range ?stats ?cursor p ~count ~src ~packed_off ~dst =
  range ?stats ?cursor p ~count ~packed_off ~pack:true ~typed:src ~stream:dst

let unpack_range ?stats ?cursor p ~count ~src ~packed_off ~dst =
  range ?stats ?cursor p ~count ~packed_off ~pack:false ~typed:dst ~stream:src

(* One element's blocks, sharing the plan's arrays: the table only
   reads them. *)
let region_table p =
  let p = force p in
  Buf.Iov.table ~offs:p.disps ~lens:p.lens

(* --- iovec from the plan arrays ---

   Same merged-region structure as [Datatype.iovec] (blocks that touch
   across an element boundary coalesce), but assembled from the flat
   arrays with no tree walk. *)

let iovec p ~count ~base =
  let p = force p in
  let nb = Array.length p.lens in
  let acc = ref [] in
  let pending_disp = ref 0 and pending_len = ref 0 in
  let emit disp len =
    if len > 0 then
      if !pending_len > 0 && !pending_disp + !pending_len = disp then
        pending_len := !pending_len + len
      else begin
        if !pending_len > 0 then
          acc := Buf.sub base ~pos:!pending_disp ~len:!pending_len :: !acc;
        pending_disp := disp;
        pending_len := len
      end
  in
  for e = 0 to count - 1 do
    let eb = e * p.elem_extent in
    for i = 0 to nb - 1 do
      emit (eb + p.disps.(i)) p.lens.(i)
    done
  done;
  if !pending_len > 0 then
    acc := Buf.sub base ~pos:!pending_disp ~len:!pending_len :: !acc;
  List.rev !acc
