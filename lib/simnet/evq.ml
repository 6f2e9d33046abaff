(* Calendar queue (Brown 1988) over parallel unboxed arrays.

   Time is hashed into an array of buckets, each [width] wide in
   virtual time: an event at time [T] lives in bucket
   [floor(T / width) mod nbuckets], in a singly-linked list kept
   sorted by [(time, seq)].  A pop scans forward from the current
   virtual bucket [cur_vb]; bucket windows partition the time axis, so
   the first head found inside its window is the global minimum.  Both
   operations are O(1) amortized: pushes land at the list tail in the
   common case (the simulation schedules forward in time, and within a
   timestamp [seq] is increasing), and pops scan
   ~[nbuckets / len] buckets, which resizing keeps near one.

   Storage is parallel arrays indexed by entry id — [times] (flat
   float storage: a comparison is two contiguous loads), [seqs]
   (tie-break), [nexts] (intrusive list link), [slots] (the values).
   Entry ids are recycled through [free_stack]; a steady-state
   simulation (push/pop balanced) allocates nothing on the hot path.

   Comparison loops are written out inline rather than factored into
   helpers: without cross-module inlining the native compiler boxes
   float arguments at every call boundary, so a helper taking the key
   being inserted would allocate on each call — measured at 3x
   whole-queue throughput on the hold benchmark.  Keys stay in local
   float variables (registers) instead.

   Resizing: when [len] outgrows [2 * nbuckets] (or falls below
   [nbuckets / 8]) the bucket array is rebuilt at ~[len] buckets with
   [width] re-estimated as the time from the last pop to the latest
   live event divided by the live count — so a pop's forward scan
   meets about one event per bucket regardless of scale.  Far-future
   outliers (e.g. timeout sentinels) would widen that estimate; they are clamped to a terminal virtual
   bucket and recovered by the direct-search fallback, which also
   bounds any pop at O(nbuckets) when the window scan wraps a whole
   year without finding a head.  Such a wrap also proves [width]
   stale, which the size thresholds alone never notice at small
   populations: a world with a handful of live events µs apart would
   otherwise keep the initial 1 ns width for life and walk its whole
   calendar per pop.  So a wrap re-estimates [width] through the same
   rebuild.  Measuring from the last pop, not from the earliest live
   event, gives even a lone event a spacing to fit: the gap a scan
   would walk to reach it.

   Determinism: bucket selection is a pure function of the key and the
   (deterministically evolved) width, in-bucket lists are totally
   ordered by [(time, seq)], and equal times always share a bucket —
   so the pop order of any push/pop interleaving is identical to the
   reference binary heap's, which the differential property in
   [test_simnet.ml] pins.

   Safety of the [unsafe_get]/[unsafe_set] accesses: entry ids are
   bounded by [nfree + len = nslots <= Array.length times] (all five
   entry arrays grow in lockstep), bucket indices are masked by
   [nbuckets - 1], and list links are entry ids or -1 (checked before
   use). *)

type 'a t = {
  (* entry storage, indexed by entry id *)
  mutable times : float array;  (* key: virtual time *)
  mutable seqs : int array;  (* key: scheduling order, breaks ties *)
  mutable nexts : int array;  (* intrusive bucket-list link; -1 = end *)
  mutable slots : 'a array;  (* stable value storage *)
  mutable free_stack : int array;  (* recycled entry ids *)
  mutable nfree : int;
  mutable nslots : int;  (* entry ids ever handed out *)
  (* calendar *)
  mutable heads : int array;  (* first entry id per bucket; -1 = empty *)
  mutable tails : int array;  (* last entry id per bucket; -1 = empty *)
  mutable nbuckets : int;  (* power of two *)
  mutable mask : int;  (* nbuckets - 1 *)
  mutable width : float;  (* bucket width in virtual time *)
  mutable inv_width : float;  (* 1. /. width *)
  mutable cur_vb : int;  (* scan cursor: current virtual bucket *)
  mutable len : int;
  mutable peeked : int;  (* entry found by the last scan; -1 = stale *)
  mutable peeked_b : int;  (* its bucket index *)
  last_pop : float array;  (* the last popped time, stored unboxed *)
  (* counters *)
  mutable pushes : int;
  mutable reuses : int;
  mutable max_live : int;
  mutable scans : int;
}

(* A small world holds a handful of live events, so the calendar and
   the entry arrays start small and grow (entries by doubling, buckets
   by [resize]) with the population. *)
let initial_capacity = 16
let initial_buckets = 16

(* Clamp for the virtual-bucket computation: beyond this the
   float-to-int conversion could overflow, so everything maps to one
   terminal bucket and is found by the direct-search fallback. *)
let max_vbf = 4.0e15

let vbucket t time =
  let vbf = time *. t.inv_width in
  if vbf >= max_vbf then int_of_float max_vbf else int_of_float vbf

let create () =
  {
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    nexts = Array.make initial_capacity (-1);
    slots = Array.make initial_capacity (Obj.magic 0);
    free_stack = Array.make initial_capacity 0;
    nfree = 0;
    nslots = 0;
    heads = Array.make initial_buckets (-1);
    tails = Array.make initial_buckets (-1);
    nbuckets = initial_buckets;
    mask = initial_buckets - 1;
    width = 1.0;
    inv_width = 1.0;
    cur_vb = 0;
    len = 0;
    peeked = -1;
    peeked_b = -1;
    last_pop = [| 0. |];
    pushes = 0;
    reuses = 0;
    max_live = 0;
    scans = 0;
  }

let is_empty t = t.len = 0
let size t = t.len
let pushes t = t.pushes
let reuses t = t.reuses
let max_live t = t.max_live
let scans t = t.scans

let grow_entries t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. in
  let seqs = Array.make (2 * cap) 0 in
  let nexts = Array.make (2 * cap) (-1) in
  let slots = Array.make (2 * cap) (Obj.magic 0) in
  let free_stack = Array.make (2 * cap) 0 in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.nexts 0 nexts 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.free_stack 0 free_stack 0 t.nfree;
  t.times <- times;
  t.seqs <- seqs;
  t.nexts <- nexts;
  t.slots <- slots;
  t.free_stack <- free_stack

(* Link entry [e] (with key [time], [seq]) into bucket [b], keeping
   the list sorted by [(time, seq)].  The tail check comes first: the
   engine schedules forward in time, so appends dominate. *)
let bucket_insert t b e time seq =
  let tl = Array.unsafe_get t.tails b in
  if tl < 0 then begin
    Array.unsafe_set t.heads b e;
    Array.unsafe_set t.tails b e
  end
  else begin
    let tt = Array.unsafe_get t.times tl in
    if time > tt || (time = tt && seq > Array.unsafe_get t.seqs tl) then begin
      Array.unsafe_set t.nexts tl e;
      Array.unsafe_set t.tails b e
    end
    else begin
      let hd = Array.unsafe_get t.heads b in
      let ht = Array.unsafe_get t.times hd in
      if time < ht || (time = ht && seq < Array.unsafe_get t.seqs hd) then begin
        Array.unsafe_set t.nexts e hd;
        Array.unsafe_set t.heads b e
      end
      else begin
        (* walk to the last node whose key precedes [(time, seq)] *)
        let p = ref hd in
        let continue = ref true in
        while !continue do
          let nx = Array.unsafe_get t.nexts !p in
          if nx < 0 then continue := false
          else begin
            let nt = Array.unsafe_get t.times nx in
            if nt > time || (nt = time && Array.unsafe_get t.seqs nx > seq)
            then continue := false
            else p := nx
          end
        done;
        Array.unsafe_set t.nexts e (Array.unsafe_get t.nexts !p);
        Array.unsafe_set t.nexts !p e
      end
    end
  end

(* Rebuild the bucket array at ~[len] buckets, re-estimating [width]
   from the span between the last pop (or an earlier live event, which
   only a caller other than the engine pushes) and the latest live
   event.  O(len + nbuckets); the thresholds in [push]/[pop_min] make
   it amortized O(1), and in [scan] it follows a year wrap that has
   already walked every bucket. *)
let resize t =
  t.peeked <- -1;
  let n = t.len in
  let entries = Array.make (max n 1) 0 in
  let k = ref 0 in
  let tmin = ref infinity and tmax = ref neg_infinity in
  for b = 0 to t.nbuckets - 1 do
    let e = ref t.heads.(b) in
    while !e >= 0 do
      entries.(!k) <- !e;
      incr k;
      let tt = t.times.(!e) in
      if tt < !tmin then tmin := tt;
      if tt > !tmax then tmax := tt;
      e := t.nexts.(!e)
    done
  done;
  let nb = ref initial_buckets in
  while !nb < n do
    nb := !nb * 2
  done;
  t.nbuckets <- !nb;
  t.mask <- !nb - 1;
  t.heads <- Array.make !nb (-1);
  t.tails <- Array.make !nb (-1);
  let span = !tmax -. Float.min !tmin (Array.unsafe_get t.last_pop 0) in
  let w = if span <= 0. then 1.0 else span /. float_of_int (max n 1) in
  let w = if w < 1e-9 then 1e-9 else w in
  t.width <- w;
  t.inv_width <- 1. /. w;
  let entries = Array.sub entries 0 n in
  let cmp a b =
    let c = compare t.times.(a) t.times.(b) in
    if c <> 0 then c else compare t.seqs.(a) t.seqs.(b)
  in
  (* reinsert in sorted order so every insert is a tail append *)
  Array.sort cmp entries;
  if n > 0 then t.cur_vb <- vbucket t t.times.(entries.(0));
  Array.iter
    (fun e ->
      t.nexts.(e) <- -1;
      let time = t.times.(e) in
      bucket_insert t (vbucket t time land t.mask) e time t.seqs.(e))
    entries

let push t ~time ~seq v =
  if t.nfree = 0 && t.nslots = Array.length t.times then begin
    grow_entries t;
    t.pushes <- t.pushes + 1
  end
  else begin
    t.pushes <- t.pushes + 1;
    t.reuses <- t.reuses + 1
  end;
  (* a cached minimum stays the minimum when the new key sorts after
     it: its bucket and the cursor are untouched, so the scan that found
     it serves the next pop *)
  let pk = t.peeked in
  if
    pk >= 0
    &&
    let pt = Array.unsafe_get t.times pk in
    time < pt || (time = pt && seq < Array.unsafe_get t.seqs pk)
  then t.peeked <- -1;
  let e =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      Array.unsafe_get t.free_stack t.nfree
    end
    else begin
      let s = t.nslots in
      t.nslots <- s + 1;
      s
    end
  in
  Array.unsafe_set t.times e time;
  Array.unsafe_set t.seqs e seq;
  Array.unsafe_set t.nexts e (-1);
  Array.unsafe_set t.slots e v;
  let vb = vbucket t time in
  bucket_insert t (vb land t.mask) e time seq;
  (* an event behind the scan cursor must pull it back, or it would be
     missed until a year wrap forces the direct search *)
  if t.len = 0 || vb < t.cur_vb then t.cur_vb <- vb;
  t.len <- t.len + 1;
  if t.len > t.max_live then t.max_live <- t.len;
  if t.len > 2 * t.nbuckets then resize t

(* Locate the minimum entry; caches it in [peeked]/[peeked_b] so a
   [min_time] followed by [pop_min] scans once. *)
let scan t =
  let found = ref (-1) and fb = ref (-1) in
  let scanned = ref 0 in
  while !found < 0 do
    if !scanned > t.nbuckets then begin
      (* wrapped a whole year without a head in its window: fall back
         to a direct search over bucket heads (each is its bucket's
         minimum, so the least head is the global minimum) *)
      let best = ref (-1) in
      for b = 0 to t.nbuckets - 1 do
        let h = t.heads.(b) in
        if h >= 0 then
          if !best < 0 then best := h
          else begin
            let ht = t.times.(h) and bt = t.times.(!best) in
            if ht < bt || (ht = bt && t.seqs.(h) < t.seqs.(!best)) then best := h
          end
      done;
      found := !best;
      (* a wrap means [width] no longer fits the live events' spacing:
         re-estimate it, which re-files every entry and puts the cursor
         on the minimum *)
      resize t;
      fb := vbucket t t.times.(!best) land t.mask
    end
    else begin
      let b = t.cur_vb land t.mask in
      let h = Array.unsafe_get t.heads b in
      (* a head inside the cursor's window is the global minimum:
         windows below [cur_vb] have been drained (or the cursor was
         pulled back by [push]), and within a window only this bucket
         can hold events.  The test is [vbucket]'s own product, so it
         agrees with the bucket the head was filed in to the last bit. *)
      if
        h >= 0
        && Array.unsafe_get t.times h *. t.inv_width
           < float_of_int (t.cur_vb + 1)
      then begin
        found := h;
        fb := b
      end
      else begin
        t.cur_vb <- t.cur_vb + 1;
        incr scanned
      end
    end
  done;
  t.scans <- t.scans + !scanned;
  t.peeked <- !found;
  t.peeked_b <- !fb

let min_time t =
  if t.len = 0 then invalid_arg "Evq.min_time: empty queue";
  if t.peeked < 0 then scan t;
  Array.unsafe_get t.times t.peeked

let min_after t x dx =
  if t.len = 0 then invalid_arg "Evq.min_after: empty queue";
  if t.peeked < 0 then scan t;
  Array.unsafe_get t.times t.peeked > x +. dx

let pop_min t =
  if t.len = 0 then invalid_arg "Evq.pop_min: empty queue";
  if t.peeked < 0 then scan t;
  let e = t.peeked and b = t.peeked_b in
  t.peeked <- -1;
  let nx = Array.unsafe_get t.nexts e in
  Array.unsafe_set t.heads b nx;
  if nx < 0 then Array.unsafe_set t.tails b (-1);
  let v = Array.unsafe_get t.slots e in
  Array.unsafe_set t.last_pop 0 (Array.unsafe_get t.times e);
  Array.unsafe_set t.slots e (Obj.magic 0);
  Array.unsafe_set t.free_stack t.nfree e;
  t.nfree <- t.nfree + 1;
  t.len <- t.len - 1;
  if t.len * 8 < t.nbuckets && t.nbuckets > initial_buckets then resize t;
  v

let pop t =
  if t.len = 0 then None
  else begin
    if t.peeked < 0 then scan t;
    let time = t.times.(t.peeked) and seq = t.seqs.(t.peeked) in
    let v = pop_min t in
    Some (time, seq, v)
  end
