type attr = Int of int | Float of float | Str of string | Bool of bool

type span = {
  sid : int;
  track : int;
  cat : string;
  name : string;
  t0 : float;
  mutable t1 : float; (* NaN while the span is open *)
  parent : int; (* sid of the enclosing span, or -1 *)
  mutable args : (string * attr) list;
}

type instant = {
  i_time : float;
  i_track : int;
  i_cat : string;
  i_name : string;
  i_args : (string * attr) list;
}

type t = {
  on : bool;
  mx : Metrics.t;
  max_events : int;
  mutable n_events : int;
  mutable rev_spans : span list;
  mutable rev_instants : instant list;
  mutable next_sid : int;
  stacks : (int, span list ref) Hashtbl.t; (* track -> open nested spans *)
  mutable n_dropped : int;
}

let null_span =
  { sid = -1; track = 0; cat = ""; name = ""; t0 = 0.; t1 = 0.; parent = -1; args = [] }

let make on max_events =
  {
    on;
    mx = Metrics.create ();
    max_events;
    n_events = 0;
    rev_spans = [];
    rev_instants = [];
    next_sid = 0;
    stacks = Hashtbl.create 8;
    n_dropped = 0;
  }

let null = make false 0
let create ?(max_events = 1_000_000) () = make true max_events
let enabled t = t.on
let metrics t = t.mx

let stack_for t track =
  match Hashtbl.find_opt t.stacks track with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.stacks track r;
      r

(* Admission control: the sink is bounded so a forgotten attach cannot
   exhaust memory on a long simulation; everything past the bound is
   counted, not silently lost. *)
let room t =
  if t.n_events >= t.max_events then begin
    t.n_dropped <- t.n_dropped + 1;
    false
  end
  else begin
    t.n_events <- t.n_events + 1;
    true
  end

let fresh_sid t =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  sid

let current_parent t track =
  match !(stack_for t track) with [] -> -1 | p :: _ -> p.sid

let span_begin t ~time ~track ~cat ?(nest = true) ?(args = []) name =
  if not t.on || not (room t) then null_span
  else begin
    let sp =
      {
        sid = fresh_sid t;
        track;
        cat;
        name;
        t0 = time;
        t1 = Float.nan;
        parent = current_parent t track;
        args;
      }
    in
    t.rev_spans <- sp :: t.rev_spans;
    if nest then begin
      let st = stack_for t track in
      st := sp :: !st
    end;
    sp
  end

let span_end t ~time ?(args = []) sp =
  if t.on && sp != null_span then begin
    sp.t1 <- time;
    if args <> [] then sp.args <- sp.args @ args;
    let st = stack_for t sp.track in
    st := List.filter (fun s -> s != sp) !st
  end

let span_complete t ~track ~cat ~t0 ~t1 ?parent ?(args = []) name =
  if not t.on || not (room t) then null_span
  else begin
    let parent =
      match parent with
      | Some p when p != null_span -> p.sid
      | _ -> current_parent t track
    in
    let sp = { sid = fresh_sid t; track; cat; name; t0; t1; parent; args } in
    t.rev_spans <- sp :: t.rev_spans;
    sp
  end

let tile_callbacks t ~track ~t0 ~t1 ~n ~name ~hist ~parent =
  if t.on && n > 0 && t1 > t0 then begin
    let per = (t1 -. t0) /. float_of_int n in
    for i = 0 to n - 1 do
      let s0 = t0 +. (per *. float_of_int i) in
      ignore
        (span_complete t ~track ~cat:"callback" ~t0:s0 ~t1:(s0 +. per) ~parent name)
    done;
    let h = Metrics.histogram t.mx hist in
    for _ = 1 to n do
      Metrics.observe h per
    done
  end

let instant t ~time ~track ~cat ?(args = []) name =
  if t.on && room t then
    t.rev_instants <-
      { i_time = time; i_track = track; i_cat = cat; i_name = name; i_args = args }
      :: t.rev_instants

let by_start a b = if a.t0 = b.t0 then compare a.sid b.sid else compare a.t0 b.t0

let spans t = List.sort by_start t.rev_spans

let instants t =
  List.stable_sort
    (fun a b -> compare a.i_time b.i_time)
    (List.rev t.rev_instants)

let span_count t = List.length t.rev_spans
let instant_count t = List.length t.rev_instants
let dropped t = t.n_dropped

let find t sid = List.find_opt (fun s -> s.sid = sid) t.rev_spans

let is_open sp = Float.is_nan sp.t1

let categories t =
  List.sort_uniq compare
    (List.rev_append
       (List.rev_map (fun s -> s.cat) t.rev_spans)
       (List.map (fun i -> i.i_cat) t.rev_instants))

let tracks t =
  List.sort_uniq compare
    (List.rev_append
       (List.rev_map (fun s -> s.track) t.rev_spans)
       (List.map (fun i -> i.i_track) t.rev_instants))

let clear t =
  t.rev_spans <- [];
  t.rev_instants <- [];
  t.n_events <- 0;
  t.n_dropped <- 0;
  Hashtbl.reset t.stacks
