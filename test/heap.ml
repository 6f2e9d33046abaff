type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = { mutable arr : 'a entry option array; mutable len : int }

let create () = { arr = Array.make 64 None; len = 0 }
let is_empty t = t.len = 0
let size t = t.len

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let arr = Array.make (2 * Array.length t.arr) None in
  Array.blit t.arr 0 arr 0 t.len;
  t.arr <- arr

let get t i =
  match t.arr.(i) with Some e -> e | None -> assert false

let swap t i j =
  let tmp = t.arr.(i) in
  t.arr.(i) <- t.arr.(j);
  t.arr.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less (get t i) (get t parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less (get t l) (get t !smallest) then smallest := l;
  if r < t.len && less (get t r) (get t !smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~time ~seq value =
  if t.len = Array.length t.arr then grow t;
  t.arr.(t.len) <- Some { time; seq; value };
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = get t 0 in
    t.len <- t.len - 1;
    t.arr.(0) <- t.arr.(t.len);
    t.arr.(t.len) <- None;
    if t.len > 0 then sift_down t 0;
    Some (top.time, top.seq, top.value)
  end
